(* The 64-bit state lives in 8 bytes rather than in a [mutable int64]
   field: storing an int64 into a record field boxes it on every draw,
   while [Bytes.set_int64_le] stores it unboxed, and a draw inlined
   into its caller allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
   number generators"). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int without
     wrapping negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  let unit = float_of_int bits *. (1.0 /. 9007199254740992.0) in
  unit *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let geometric t p =
  let p = if p < 1e-9 then 1e-9 else p in
  let rec loop n = if bernoulli t p then n else loop (n + 1) in
  loop 0

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_weighted t a =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 a in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: weights sum to zero";
  let target = float t total in
  let rec loop i acc =
    if i = Array.length a - 1 then fst a.(i)
    else
      let acc = acc +. snd a.(i) in
      if target < acc then fst a.(i) else loop (i + 1) acc
  in
  loop 0 0.0

let shuffle ?len t a =
  let len = match len with Some n -> n | None -> Array.length a in
  for i = len - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let gaussian t ~mean ~stddev =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 1e-12 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

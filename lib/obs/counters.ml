type counter = { c_name : string; mutable value : int }

let max_buckets = 31

type histogram = {
  h_name : string;
  mutable count : int;
  mutable sum : int;
  mutable max_v : int;
  bucket : int array;  (* power-of-two buckets over v+1 *)
}

type registry = {
  counters_tbl : (string, counter) Hashtbl.t;
  histograms_tbl : (string, histogram) Hashtbl.t;
}

let create () =
  { counters_tbl = Hashtbl.create 16; histograms_tbl = Hashtbl.create 16 }

let default = create ()

let counter ?(registry = default) name =
  match Hashtbl.find_opt registry.counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c_name = name; value = 0 } in
      Hashtbl.add registry.counters_tbl name c;
      c

let incr c = c.value <- c.value + 1
let add c n = c.value <- c.value + n
let value c = c.value

let histogram ?(registry = default) name =
  match Hashtbl.find_opt registry.histograms_tbl name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          count = 0;
          sum = 0;
          max_v = 0;
          bucket = Array.make max_buckets 0;
        }
      in
      Hashtbl.add registry.histograms_tbl name h;
      h

let bucket_of v =
  (* floor log2 of v+1, clamped to the bucket range. *)
  let rec go x acc = if x <= 1 then acc else go (x lsr 1) (acc + 1) in
  Int.min (max_buckets - 1) (go (v + 1) 0)

let observe h v =
  let v = Int.max 0 v in
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.bucket.(b) <- h.bucket.(b) + 1

let observe_n h v k =
  if k > 0 then begin
    let v = Int.max 0 v in
    h.count <- h.count + k;
    h.sum <- h.sum + (v * k);
    if v > h.max_v then h.max_v <- v;
    let b = bucket_of v in
    h.bucket.(b) <- h.bucket.(b) + k
  end

let hist_count h = h.count
let hist_sum h = h.sum
let hist_max h = h.max_v

let hist_mean h =
  if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

let buckets h =
  let hi = ref 0 in
  Array.iteri (fun i n -> if n > 0 then hi := i) h.bucket;
  Array.sub h.bucket 0 (!hi + 1)

(* Bucket [i] covers values v with 2^i <= v+1 < 2^(i+1). *)
let bucket_lo i = (1 lsl i) - 1
let bucket_hi i = (1 lsl (i + 1)) - 2

let percentile h p =
  if h.count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let rank = p *. float_of_int h.count in
    let result = ref (float_of_int h.max_v) in
    let cum = ref 0.0 in
    (try
       for i = 0 to max_buckets - 1 do
         let n = h.bucket.(i) in
         if n > 0 then begin
           let cum' = !cum +. float_of_int n in
           if cum' >= rank then begin
             (* Linear interpolation inside the bucket's value range,
                clamped to the largest value actually observed. *)
             let lo = float_of_int (bucket_lo i) in
             let hi = float_of_int (min (bucket_hi i) h.max_v) in
             let frac = (rank -. !cum) /. float_of_int n in
             result := lo +. (frac *. (hi -. lo));
             raise Exit
           end;
           cum := cum'
         end
       done
     with Exit -> ());
    !result
  end

let reset registry =
  Hashtbl.iter (fun _ c -> c.value <- 0) registry.counters_tbl;
  Hashtbl.iter
    (fun _ h ->
      h.count <- 0;
      h.sum <- 0;
      h.max_v <- 0;
      Array.fill h.bucket 0 max_buckets 0)
    registry.histograms_tbl

let merge ~into src =
  (* Name-sorted iteration keeps the intern order (and therefore any
     later registration) deterministic regardless of how the source
     registry was populated. *)
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) src.counters_tbl []
  |> List.sort compare
  |> List.iter (fun (name, c) -> add (counter ~registry:into name) c.value);
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) src.histograms_tbl []
  |> List.sort compare
  |> List.iter (fun (name, h) ->
         let dst = histogram ~registry:into name in
         dst.count <- dst.count + h.count;
         dst.sum <- dst.sum + h.sum;
         if h.max_v > dst.max_v then dst.max_v <- h.max_v;
         Array.iteri
           (fun i n -> dst.bucket.(i) <- dst.bucket.(i) + n)
           h.bucket)

let counters registry =
  Hashtbl.fold (fun name c acc -> (name, c.value) :: acc) registry.counters_tbl []
  |> List.sort compare

let histograms registry =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) registry.histograms_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json registry =
  let hist_json h =
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("sum", Json.Int h.sum);
        ("max", Json.Int h.max_v);
        ("mean", Json.Float (hist_mean h));
        ("p50", Json.Float (percentile h 0.5));
        ("p90", Json.Float (percentile h 0.9));
        ("p99", Json.Float (percentile h 0.99));
        ( "buckets",
          Json.List
            (Array.to_list (Array.map (fun n -> Json.Int n) (buckets h))) );
      ]
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters registry))
      );
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, hist_json h)) (histograms registry))
      );
    ]

let pp ppf registry =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (n, v) -> Format.fprintf ppf "%-36s %12d@," n v)
    (counters registry);
  List.iter
    (fun (n, h) ->
      Format.fprintf ppf "%-36s n=%d mean=%.2f p50=%.1f p90=%.1f p99=%.1f max=%d@,"
        n h.count (hist_mean h) (percentile h 0.5) (percentile h 0.9)
        (percentile h 0.99) h.max_v)
    (histograms registry);
  Format.fprintf ppf "@]"

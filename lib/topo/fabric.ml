type t = {
  topo : Topology.t;
  free : int array;  (* link id -> next free cycle *)
}

(* Link numbering, per topology kind (n = clusters):
   - p2p : n*n slots, directed pair [from*n + to] — exactly the seed
     engine's [link_free] matrix, flattened.
   - bus : one shared slot.
   - ring: 2n directed hop links — forward out of node c is [c],
     backward out of node c is [n + c].
   - mesh: four directed outgoing links per cell, [4*c + dir] with
     dir 0 = +x, 1 = -x, 2 = +y, 3 = -y.
   - hier: n*n local slots (in-group copies use [from*n + to]; the
     diagonal [c*n + c], never used by a direct copy, doubles as
     cluster [c]'s uplink access port) plus [uplink_bandwidth] shared
     uplink channels at [n*n ..]. *)
let link_count (topo : Topology.t) =
  let n = topo.Topology.clusters in
  match topo.Topology.kind with
  | Topology.P2p -> n * n
  | Topology.Bus -> 1
  | Topology.Ring -> 2 * n
  | Topology.Mesh _ -> 4 * n
  | Topology.Hier _ -> (n * n) + topo.Topology.uplink_bandwidth

let create topo =
  (match Topology.validate topo with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fabric.create: " ^ m));
  { topo; free = Array.make (link_count topo) 0 }

let topology t = t.topo
let links t = Array.length t.free
let reset t = Array.fill t.free 0 (Array.length t.free) 0

(* A hop holds its link for one cycle starting at [start]; busy means
   the link is reserved past [start] — the seed's exact condition. *)
let[@inline] hop_free t ~id ~start = t.free.(id) <= start
let[@inline] hop_take t ~id ~start = t.free.(id) <- start + 1

let try_transfer t ~now ~from ~to_ =
  let topo = t.topo in
  let n = topo.Topology.clusters in
  let ll = topo.Topology.link_latency in
  match topo.Topology.kind with
  | Topology.P2p ->
      let id = (from * n) + to_ in
      if hop_free t ~id ~start:now then begin
        hop_take t ~id ~start:now;
        ll
      end
      else -1
  | Topology.Bus ->
      if hop_free t ~id:0 ~start:now then begin
        hop_take t ~id:0 ~start:now;
        ll
      end
      else -1
  | Topology.Ring ->
      let fwd = (to_ - from + n) mod n in
      let bwd = (from - to_ + n) mod n in
      let hops = Int.max 1 (Int.min fwd bwd) in
      let step = if fwd <= bwd then 1 else n - 1 (* -1 mod n *) in
      let base = if fwd <= bwd then 0 else n in
      (* pass 1: every hop link free at its slot? *)
      let ok = ref true in
      let node = ref from in
      for k = 0 to hops - 1 do
        let id = base + !node in
        if not (hop_free t ~id ~start:(now + (k * ll))) then ok := false;
        node := (!node + step) mod n
      done;
      if not !ok then -1
      else begin
        let node = ref from in
        for k = 0 to hops - 1 do
          hop_take t ~id:(base + !node) ~start:(now + (k * ll));
          node := (!node + step) mod n
        done;
        hops * ll
      end
  | Topology.Mesh { cols; _ } ->
      let fx = from mod cols and fy = from / cols in
      let tx = to_ mod cols and ty = to_ / cols in
      let hops = abs (fx - tx) + abs (fy - ty) in
      (* XY routing: walk x to the target column, then y. [probe]
         enumerates the route twice — once checking, once reserving —
         so the reservation is all-or-nothing. *)
      let probe ~take =
        let ok = ref true in
        let x = ref fx and y = ref fy and k = ref 0 in
        while !ok && (!x <> tx || !y <> ty) do
          let cell = (!y * cols) + !x in
          let dir =
            if !x < tx then begin
              incr x;
              0
            end
            else if !x > tx then begin
              decr x;
              1
            end
            else if !y < ty then begin
              incr y;
              2
            end
            else begin
              decr y;
              3
            end
          in
          let id = (4 * cell) + dir in
          let start = now + (!k * ll) in
          if take then hop_take t ~id ~start
          else if not (hop_free t ~id ~start) then ok := false;
          incr k
        done;
        !ok
      in
      if not (probe ~take:false) then -1
      else begin
        ignore (probe ~take:true);
        hops * ll
      end
  | Topology.Hier { group_size; _ } ->
      if from / group_size = to_ / group_size then begin
        (* in-group: a dedicated point-to-point link, as the seed. *)
        let id = (from * n) + to_ in
        if hop_free t ~id ~start:now then begin
          hop_take t ~id ~start:now;
          ll
        end
        else -1
      end
      else begin
        (* egress port -> shared uplink channel -> ingress port *)
        let egress = (from * n) + from in
        let ingress = (to_ * n) + to_ in
        let up_start = now + ll in
        let in_start = now + ll + topo.Topology.uplink_latency in
        (* lowest-numbered free channel wins: deterministic. *)
        let chan = ref (-1) in
        let c = ref 0 in
        let bw = topo.Topology.uplink_bandwidth in
        while !chan < 0 && !c < bw do
          if hop_free t ~id:((n * n) + !c) ~start:up_start then chan := !c;
          incr c
        done;
        if
          !chan < 0
          || (not (hop_free t ~id:egress ~start:now))
          || not (hop_free t ~id:ingress ~start:in_start)
        then -1
        else begin
          hop_take t ~id:egress ~start:now;
          hop_take t ~id:((n * n) + !chan) ~start:up_start;
          hop_take t ~id:ingress ~start:in_start;
          (2 * ll) + topo.Topology.uplink_latency
        end
      end

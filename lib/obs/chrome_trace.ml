let frontend_tid ~clusters = clusters

let meta ~pid ~tid name_field name =
  Json.Obj
    [
      ("name", Json.Str name_field);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let instant ~name ~ts ~tid ?(args = []) () =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("ph", Json.Str "i");
       ("s", Json.Str "t");
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let slice ~name ~ts ~dur ~tid ?(args = []) () =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("ph", Json.Str "X");
       ("ts", Json.Int ts);
       ("dur", Json.Int dur);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let counter ~name ~ts args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("ts", Json.Int ts);
      ("pid", Json.Int 0);
      ("args", Json.Obj args);
    ]

let event_json ~clusters ev =
  let fe = frontend_tid ~clusters in
  match (ev : Event.t) with
  | Event.Steer { cycle; static_id; cluster; inflight } ->
      instant ~name:"steer" ~ts:cycle ~tid:cluster
        ~args:
          [
            ("uop", Json.Int static_id);
            ( "inflight",
              Json.List
                (Array.to_list (Array.map (fun n -> Json.Int n) inflight)) );
          ]
        ()
  | Event.Dispatch { cycle; iseq; static_id; cluster; queue } ->
      instant ~name:("dispatch:" ^ queue) ~ts:cycle ~tid:cluster
        ~args:[ ("iseq", Json.Int iseq); ("uop", Json.Int static_id) ]
        ()
  | Event.Copy_insert { cycle; tag; from_cluster; to_cluster; copyq_depth } ->
      instant ~name:"copy" ~ts:cycle ~tid:from_cluster
        ~args:
          [
            ("tag", Json.Int tag);
            ("to", Json.Int to_cluster);
            ("copyq_depth", Json.Int copyq_depth);
          ]
        ()
  | Event.Link_transfer { cycle; from_cluster; to_cluster; latency } ->
      slice
        ~name:(Printf.sprintf "link %d->%d" from_cluster to_cluster)
        ~ts:cycle ~dur:latency ~tid:from_cluster ()
  | Event.Stall { cycle; reason } ->
      instant
        ~name:("stall:" ^ Event.stall_reason_name reason)
        ~ts:cycle ~tid:fe ()
  | Event.Commit { cycle; iseq; cluster } ->
      instant ~name:"commit" ~ts:cycle ~tid:cluster
        ~args:[ ("iseq", Json.Int iseq) ]
        ()
  | Event.Redirect { cycle; resume } ->
      instant ~name:"redirect" ~ts:cycle ~tid:fe
        ~args:[ ("resume", Json.Int resume) ]
        ()

let sample_json (s : Interval.sample) =
  let ts = s.Interval.t_end in
  [
    counter ~name:"ipc" ~ts [ ("ipc", Json.Float s.Interval.ipc) ];
    counter ~name:"copy_rate" ~ts
      [ ("copies/uop", Json.Float s.Interval.copy_rate) ];
    counter ~name:"stalls" ~ts
      (Array.to_list
         (Array.mapi
            (fun i n -> (Event.stall_names.(i), Json.Int n))
            s.Interval.stall_breakdown));
    counter ~name:"dispatch" ~ts
      (Array.to_list
         (Array.mapi
            (fun c n -> (Printf.sprintf "c%d" c, Json.Int n))
            s.Interval.per_cluster));
  ]

let to_json ~clusters ~events ~samples =
  let fe = frontend_tid ~clusters in
  let metadata =
    meta ~pid:0 ~tid:0 "process_name" "clusteer"
    :: meta ~pid:0 ~tid:fe "thread_name" "frontend"
    :: List.init clusters (fun c ->
           meta ~pid:0 ~tid:c "thread_name" (Printf.sprintf "cluster %d" c))
  in
  let trace_events =
    metadata
    @ List.map (event_json ~clusters) events
    @ List.concat_map sample_json samples
  in
  Json.Obj
    [
      ("traceEvents", Json.List trace_events);
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj [ ("timestamp_unit", Json.Str "cycles (shown as us)") ] );
    ]

let write ~path ~clusters ~events ~samples =
  Clusteer_util.Fs.write_atomic ~path (fun oc ->
      Json.output oc (to_json ~clusters ~events ~samples);
      output_char oc '\n')

(* Tests for counters, time series and table rendering. *)

let check = Alcotest.check

let stats_copy_and_diff () =
  let s = Metrics.Stats.create () in
  s.Metrics.Stats.disk_ops <- 10;
  s.Metrics.Stats.stale_reads <- 3;
  let snap = Metrics.Stats.copy s in
  s.Metrics.Stats.disk_ops <- 25;
  s.Metrics.Stats.stale_reads <- 7;
  check Alcotest.int "copy is frozen" 10 snap.Metrics.Stats.disk_ops;
  let d = Metrics.Stats.diff s snap in
  check Alcotest.int "diff disk_ops" 15 d.Metrics.Stats.disk_ops;
  check Alcotest.int "diff stale" 4 d.Metrics.Stats.stale_reads;
  check Alcotest.int "diff untouched" 0 d.Metrics.Stats.false_reads

let stats_pp_nonzero_only () =
  let s = Metrics.Stats.create () in
  s.Metrics.Stats.silent_swap_writes <- 5;
  let out = Format.asprintf "%a" Metrics.Stats.pp s in
  Alcotest.(check bool) "mentions nonzero" true
    (Test_util.contains out "silent_swap_writes");
  Alcotest.(check bool) "omits zero" false
    (Test_util.contains out "false_reads")

(* Every counter in declaration order.  Fingerprints hash
   [Stats.fields] in this order, so a rename or reorder must show up
   here. *)
let field_names =
  [
    "disk_ops"; "disk_sectors_read"; "disk_sectors_written"; "disk_seq_reads";
    "disk_read_batches"; "disk_batched_reads"; "disk_batch_sectors";
    "disk_mq_batches"; "disk_queue_depth_highwater"; "swap_sectors_read";
    "swap_sectors_written"; "host_swapins"; "host_swapouts";
    "silent_swap_writes"; "stale_reads"; "false_reads";
    "hypervisor_code_faults"; "host_context_faults"; "guest_context_faults";
    "pages_scanned"; "guest_swapins"; "guest_swapouts"; "guest_major_faults";
    "oom_kills"; "mapper_tracked"; "mapper_discards"; "mapper_refetches";
    "mapper_invalidations"; "preventer_remaps"; "preventer_merges";
    "preventer_timeouts"; "preventer_rejects"; "balloon_inflated_pages";
    "balloon_deflated_pages"; "faults_injected_media";
    "faults_injected_transient"; "faults_degraded_batches"; "fault_retries";
    "fault_retry_exhausted"; "fault_guest_kills"; "destage_media_errors";
    "destage_transient_retries"; "swap_full_fallbacks"; "emergency_steals";
    "async_waiter_merges"; "async_faults_deferred";
    "async_inflight_highwater"; "engine_events_fired";
    "engine_cancels_reclaimed"; "engine_cascades"; "tier_admissions";
    "tier_rejects"; "tier_promotions"; "tier_demotions";
    "tier_writeback_sectors"; "tier_fast_swapins"; "tier_slow_swapins";
    "tier_fast_swapin_us"; "tier_slow_swapin_us"; "scrub_scans";
    "scrub_verify_reads"; "scrub_media_found"; "scrub_relocations";
    "scrub_reloc_failed"; "qos_throttled"; "qos_throttle_wait_us";
    "tier_degraded_events"; "tier_recovered_events"; "tier_failover_routes";
    "fault_media_reads"; "fault_pages_lost";
  ]

let gauges = [ "disk_queue_depth_highwater"; "async_inflight_highwater" ]

(* [Stats.t] is a record of immediate ints, so the field declared i-th
   is block slot i.  Writing slots directly gives the tests an oracle
   that does not go through the accessors under test. *)
let of_values vs =
  let s = Metrics.Stats.create () in
  List.iteri (fun i v -> Obj.set_field (Obj.repr s) i (Obj.repr v)) vs;
  s

let nonzero s = List.filter (fun (_, v) -> v <> 0) (Metrics.Stats.fields s)

(* Set one field at a time: exactly that name must read non-zero, and
   the value must survive [copy], [diff] and [add].  A table row whose
   getter or setter is wired to the wrong field fails here. *)
let stats_field_table () =
  let open Metrics.Stats in
  check Alcotest.(list string) "names in declaration order" field_names
    (List.map fst (fields (create ())));
  check Alcotest.int "one slot per name" (List.length field_names)
    (Obj.size (Obj.repr (create ())));
  let n = List.length field_names in
  List.iteri
    (fun i name ->
      let v = i + 1 in
      let s = of_values (List.init n (fun j -> if j = i then v else 0)) in
      let only = [ (name, v) ] in
      let expect what got =
        check Alcotest.(list (pair string int)) (name ^ " " ^ what) only got
      in
      expect "alone" (nonzero s);
      expect "copy" (nonzero (copy s));
      expect "diff" (nonzero (diff s (create ())));
      check
        Alcotest.(list (pair string int))
        (name ^ " diff negates") [ (name, -v) ]
        (nonzero (diff (create ()) s));
      let d = create () in
      add d s;
      expect "add" (nonzero d))
    field_names

(* [add] is order-independent: any merge order of three readings gives
   the field-wise sum, except the two gauges, which give the max. *)
let stats_add_order_independent =
  let n = List.length field_names in
  let reading = QCheck.(list_of_size (Gen.return n) small_nat) in
  QCheck.Test.make ~name:"stats: add is order-independent, max on gauges"
    ~count:200
    QCheck.(triple reading reading reading)
    (fun (a, b, c) ->
      let open Metrics.Stats in
      let merge xs =
        let d = create () in
        List.iter (fun x -> add d (of_values x)) xs;
        fields d
      in
      let expected =
        List.mapi
          (fun i name ->
            let x = List.nth a i and y = List.nth b i and z = List.nth c i in
            ( name,
              if List.mem name gauges then max x (max y z) else x + y + z ))
          field_names
      in
      let nested =
        let bc = of_values b in
        add bc (of_values c);
        let d = of_values a in
        add d bc;
        fields d
      in
      List.for_all
        (fun got -> got = expected)
        [ merge [ a; b; c ]; merge [ c; a; b ]; merge [ b; c; a ]; nested ])

let table_render () =
  let out =
    Metrics.Table.render ~title:"t" ~headers:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true (Test_util.contains out "t\n");
  Alcotest.(check bool) "has cell" true (Test_util.contains out "333")

let table_series () =
  let out =
    Metrics.Table.render_series ~title:"s" ~x_label:"x" ~x:[ "1"; "2" ]
      ~cols:[ ("c", [ Some 1.0; None ]) ]
  in
  Alcotest.(check bool) "crash cell" true (Test_util.contains out "-")

let table_series_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Table.render_series: column \"c\" has 1 values, expected 2")
    (fun () ->
      ignore
        (Metrics.Table.render_series ~title:"s" ~x_label:"x" ~x:[ "1"; "2" ]
           ~cols:[ ("c", [ Some 1.0 ]) ]))

let fmt_float_cases () =
  check Alcotest.string "int-like" "3" (Metrics.Table.fmt_float 3.0);
  check Alcotest.string "large" "123" (Metrics.Table.fmt_float 123.4);
  check Alcotest.string "mid" "12.3" (Metrics.Table.fmt_float 12.34);
  check Alcotest.string "small" "1.23" (Metrics.Table.fmt_float 1.234)

let spark_cases () =
  check Alcotest.string "empty" "" (Metrics.Table.spark []);
  let s = Metrics.Table.spark [ 0.0; 1.0 ] in
  Alcotest.(check bool) "two glyphs" true (String.length s > 0)

let series_sampling () =
  let engine = Sim.Engine.create () in
  let v = ref 0.0 in
  let series =
    Metrics.Series.create ~engine ~period:(Sim.Time.us 10)
      [ ("probe", fun () -> !v) ]
  in
  (* something to keep the engine alive for 35us *)
  ignore (Sim.Engine.schedule_at engine (Sim.Time.us 15) (fun () -> v := 5.0));
  ignore (Sim.Engine.schedule_at engine (Sim.Time.us 35) (fun () -> Metrics.Series.stop series));
  Sim.Engine.run engine;
  let pts = Metrics.Series.points series "probe" in
  check Alcotest.int "three samples" 3 (List.length pts);
  let values = List.map snd pts in
  Alcotest.(check (list (float 1e-9))) "values" [ 0.0; 5.0; 5.0 ] values;
  Alcotest.(check (list string)) "names" [ "probe" ] (Metrics.Series.names series)

(* A faithful miniature of the bench writer's record format, including a
   delta line: this exact shape must parse. *)
let json_bench_roundtrip () =
  let doc =
    "{\n  \"date\": \"2026-08-08\",\n  \"scale\": 0.05,\n  \"jobs\": 4,\n\
    \  \"counters\": {\n\
    \    \"total\": {\"disk_mq_batches\": 812, \
     \"disk_queue_depth_highwater\": 6},\n\
    \    \"fig3\": {\"disk_mq_batches\": 812, \
     \"disk_queue_depth_highwater\": 6}\n  },\n\
    \  \"experiments\": [\n\
    \    {\"id\": \"fig3\", \"wall_s\": 0.112, \"delta_s\": 0.004, \
     \"history\": [0.108, 0.110], \"ok\": true},\n\
    \    {\"id\": \"fig9\", \"wall_s\": 0.093, \"delta_s\": -0.002, \
     \"ok\": true}\n  ]\n}\n"
  in
  (match Metrics.Json.parse doc with
  | Error e -> Alcotest.failf "writer format rejected: %s" e
  | Ok v -> (
      match
        Option.bind (Metrics.Json.member "counters" v)
          (Metrics.Json.member "total")
      with
      | Some (Metrics.Json.Obj fields) ->
          Alcotest.(check bool)
            "disk_mq_batches present" true
            (List.mem_assoc "disk_mq_batches" fields)
      | _ -> Alcotest.fail "counters.total section missing"));
  (* The historical bug: %+.3f put a '+' on positive deltas.  Strict
     JSON must reject it, or the linter is not doing its job. *)
  let buggy = "{\"id\": \"fig3\", \"wall_s\": 0.112, \"delta_s\": +2.943}" in
  Alcotest.(check bool)
    "leading + rejected" true
    (Result.is_error (Metrics.Json.validate buggy))

let json_strictness () =
  let ok s = Alcotest.(check bool) s true (Result.is_ok (Metrics.Json.validate s))
  and bad s =
    Alcotest.(check bool) s false (Result.is_ok (Metrics.Json.validate s))
  in
  ok "{}";
  ok "[]";
  ok "-0.5";
  ok "[1, 2.5, -3e2, 0.125e+2]";
  ok "{\"a\": [true, false, null], \"b\": \"x\\n\\u00e9\"}";
  bad "+1";
  bad "01";
  bad ".5";
  bad "1.";
  bad "1.e3";
  bad "[1,]";
  bad "{\"a\": 1,}";
  bad "{'a': 1}";
  bad "{\"a\": 1} {\"b\": 2}";
  bad "\"unterminated";
  bad "nul"

let tests =
    [
      ( "metrics:stats",
        [
          Alcotest.test_case "copy and diff" `Quick stats_copy_and_diff;
          Alcotest.test_case "pp nonzero only" `Quick stats_pp_nonzero_only;
          Alcotest.test_case "field table" `Quick stats_field_table;
          Test_util.qcheck stats_add_order_independent;
        ] );
      ( "metrics:table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "series" `Quick table_series;
          Alcotest.test_case "series mismatch" `Quick table_series_mismatch;
          Alcotest.test_case "fmt_float" `Quick fmt_float_cases;
          Alcotest.test_case "spark" `Quick spark_cases;
        ] );
      ( "metrics:series", [ Alcotest.test_case "sampling" `Quick series_sampling ]);
      ( "metrics:json",
        [
          Alcotest.test_case "bench format round-trips" `Quick
            json_bench_roundtrip;
          Alcotest.test_case "strictness" `Quick json_strictness;
        ] );
    ]

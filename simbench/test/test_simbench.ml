(* Tests of the benchmark's own helpers: percentile selection,
   fingerprinting, the ledger sum and the result line. *)

open Simbench_helpers

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let percentiles () =
  let a = Array.init 100 (fun i -> i + 1) in
  check_int "p50 of 1..100" 50 (percentile a 50.0);
  check_int "p99 of 1..100" 99 (percentile a 99.0);
  check_int "p100 is the max" 100 (percentile a 100.0);
  check_int "p0 is the min" 1 (percentile a 0.0);
  check_int "single sample" 7 (percentile [| 7 |] 99.9)

let tail_selection () =
  let pct = Alcotest.(check (option (float 0.0))) in
  (* The highest percentile leaving at least ten samples above it. *)
  pct "100k samples reach p99.99" (Some 99.99) (tail_percentile 100_000);
  pct "99 999 samples stop at p99.9" (Some 99.9) (tail_percentile 99_999);
  pct "1000 samples reach p99" (Some 99.0) (tail_percentile 1000);
  pct "999 samples stop at p90" (Some 90.0) (tail_percentile 999);
  pct "20 samples give the median" (Some 50.0) (tail_percentile 20);
  pct "too few samples" None (tail_percentile 19)

let summary () =
  let xs = Array.init 1000 (fun i -> 1000 - i) in
  let l = summarize xs in
  check_int "samples" 1000 l.samples;
  check_int "p50" 500 l.p50;
  check_float "tail is p99" 99.0 l.tail_pct;
  check_int "p99 value" 990 l.tail;
  let p99 = Alcotest.(check (option int)) in
  p99 "fixed p99 with 1000 samples" (Some 990) l.p99;
  let short = summarize (Array.init 999 (fun i -> i + 1)) in
  check_float "999 samples: tail is p90" 90.0 short.tail_pct;
  p99 "999 samples: no fixed p99" None short.p99;
  let few = summarize [| 3; 1; 2 |] in
  check_int "max stands in" 3 few.tail;
  check_float "marked as p100" 100.0 few.tail_pct;
  check_int "empty" 0 (summarize [||]).samples

let medians () =
  check_float "odd" 2.0 (median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (median [ 4.0; 1.0; 2.0; 3.0 ])

let fingerprints () =
  let f = [ ("a", 1); ("b", 2) ] in
  check_int "deterministic" (fingerprint f) (fingerprint [ ("a", 1); ("b", 2) ]);
  Alcotest.(check bool) "value change" true
    (fingerprint f <> fingerprint [ ("a", 1); ("b", 3) ]);
  Alcotest.(check bool) "name change" true
    (fingerprint f <> fingerprint [ ("a", 1); ("c", 2) ]);
  Alcotest.(check bool) "order matters" true
    (fingerprint f <> fingerprint [ ("b", 2); ("a", 1) ]);
  Alcotest.(check bool) "mixed-in text change" true
    (mix_string (fingerprint f) "epoch 1" <> mix_string (fingerprint f) "epoch 2");
  let flags = Alcotest.(check (list bool)) in
  flags "all agree" [ false; false; false ] (mismatched [ 5; 5; 5 ]);
  flags "one corrupted" [ false; false; true ] (mismatched [ 5; 5; 5 lxor 1 ]);
  flags "nothing to compare" [] (mismatched [])

let ledger () =
  let e =
    [
      { layer = "sim"; count = 1e6; ns_per_unit = 100.0 };
      { layer = "host"; count = 1e4; ns_per_unit = 5000.0 };
    ]
  in
  check_float "sum in seconds" 0.15 (ledger_s e);
  check_float "coverage" 0.5 (coverage e ~run_s:0.3);
  check_float "no run time" 0.0 (coverage e ~run_s:0.0);
  check_float "ratio by zero" 0.0 (ratio 1.0 0.0)

let output () =
  let line =
    result_line ~correct:true ~attempted:3 ~failed:0
      [
        { name = "wall_s"; value = 1.25; unit_ = "s" };
        { name = "events_per_s"; value = 1e6; unit_ = "1/s" };
      ]
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"events_per_s\": \
     {\"value\": 1000000.0, \"unit\": \"1/s\"}}}"
    line;
  let v = 0.1 +. 0.2 in
  check_float "all digits kept" v (float_of_string (json_float v));
  Alcotest.(check string) "escaping" "\"a\\\"b\"" (json_string "a\"b");
  Alcotest.check_raises "nan refused"
    (Invalid_argument "Simbench_helpers.json_float: not finite") (fun () ->
      ignore (json_float Float.nan))

let ibuf () =
  let b = Ibuf.create () in
  for i = 0 to 4999 do
    Ibuf.push b i
  done;
  check_int "length" 5000 (Ibuf.length b);
  check_int "get" 4321 (Ibuf.get b 4321);
  check_int "to_array" 4999 (Ibuf.to_array b).(4999)

let () =
  Alcotest.run "simbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "tail selection" `Quick tail_selection;
          Alcotest.test_case "latency summary" `Quick summary;
          Alcotest.test_case "medians" `Quick medians;
          Alcotest.test_case "fingerprints" `Quick fingerprints;
          Alcotest.test_case "ledger" `Quick ledger;
          Alcotest.test_case "result line" `Quick output;
          Alcotest.test_case "int buffer" `Quick ibuf;
        ] );
    ]

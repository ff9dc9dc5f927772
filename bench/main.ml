(* Benchmark harness.

   Default mode regenerates every table and figure of the paper's
   evaluation section, printing the same rows/series the paper reports
   (paper values alongside, for shape comparison).  Experiments fan out
   across a domain pool; outputs are buffered and printed in registry
   order, so the sweep reads identically at any parallelism:

     dune exec bench/main.exe                   # full scale, all cores
     VSWAPPER_JOBS=1 dune exec bench/main.exe   # serial reference
     VSWAPPER_BENCH_SCALE=0.25 dune exec bench/main.exe
     dune exec bench/main.exe -- fig9 fig10     # a subset

   `--jobs N` overrides `VSWAPPER_JOBS` (and the core-count default);
   `--jobs 1` forces the serial inline path.  Both the experiment fan-out
   and the intra-experiment shards (fig3/fig4/fig5/fig11/fig14/abl) run
   on the same shared pool — its `map` is re-entrant, so the nesting is
   safe at any width.

   `--fault-seed N` / `--fault-rate R` parameterize the `resilience`
   experiment's deterministic disk-fault injection: the seed fixes the
   fault plan, and a non-zero rate replaces the built-in rate grid with
   [0; R].  The same seed produces byte-identical sweep output at any
   `--jobs` width.

   `--json [FILE]` additionally writes a machine-readable summary
   (per-experiment wall-clock and allocation, every simulation counter
   in total and per experiment, pool scheduling counters) to FILE,
   default `BENCH_<yyyy-mm-dd>.json`.  Per-layer costs and end-to-end
   throughput are measured by simbench/, not here. *)

(* A typo must not silently turn a smoke-sized run into the full sweep,
   so anything but a positive finite float is rejected. *)
let scale () =
  match Sys.getenv_opt "VSWAPPER_BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some v when Float.is_finite v && v > 0.0 -> v
      | Some _ | None ->
          Printf.eprintf
            "VSWAPPER_BENCH_SCALE expects a positive float, got %S\n" s;
          exit 2)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

type bench_record = {
  mutable experiments : (string * float * bool * float) list;
      (* id, wall_s, ok, alloc_words *)
  mutable total_wall_s : float;
  jobs : int;
}

(* The sum of every experiment's counters. *)
let counters_total counters =
  let total = Metrics.Stats.create () in
  List.iter (fun (_, s) -> Metrics.Stats.add total s) counters;
  total

(* One [Stats.t] as a JSON object, keys in [Stats.fields] order. *)
let stats_json s =
  Metrics.Stats.fields s
  |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v)
  |> String.concat ", " |> Printf.sprintf "{%s}"

let write_json ~file ~scale r =
  (* Write to a temp file and rename over the target: a crash mid-write
     never leaves a truncated summary behind. *)
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"date\": \"%s\",\n" (today ());
  out "  \"scale\": %g,\n" scale;
  out "  \"jobs\": %d,\n" r.jobs;
  out "  \"total_wall_s\": %.3f,\n" r.total_wall_s;
  (* Counters section: the total plus one object per experiment id, each
     with every [Stats.fields] entry. *)
  let counters = Experiments.Exp.counters () in
  out "  \"counters\": {\n    \"total\": %s"
    (stats_json (counters_total counters));
  List.iter
    (fun (id, s) -> out ",\n    \"%s\": %s" (json_escape id) (stats_json s))
    counters;
  out "\n  },\n";
  out "  \"engine\": {\"backend\": \"%s\"},\n"
    (Sim.Engine.backend_name (Sim.Engine.default_backend ()));
  (* Memory section: the writing domain's GC counters (worker-domain
     allocation shows up per experiment below, not here) and the live /
     peak heap after a full major — the footprint the flat metadata
     plane is meant to keep down. *)
  let gq = Gc.quick_stat () in
  Gc.full_major ();
  let gs = Gc.stat () in
  out
    "  \"memory\": {\"minor_words\": %.0f, \"major_words\": %.0f, \
     \"promoted_words\": %.0f, \"top_heap_words\": %d, \"live_words\": %d},\n"
    gq.Gc.minor_words gq.Gc.major_words gq.Gc.promoted_words
    gs.Gc.top_heap_words gs.Gc.live_words;
  let ps = Parallel.Pool.stats (Parallel.Pool.global ()) in
  out
    "  \"parallel\": {\"jobs\": %d, \"worker_jobs\": %d, \"helper_jobs\": \
     %d, \"peak_queue_depth\": %d},\n"
    ps.Parallel.Pool.jobs ps.Parallel.Pool.worker_jobs
    ps.Parallel.Pool.helper_jobs ps.Parallel.Pool.peak_queue_depth;
  out "  \"experiments\": [";
  List.iteri
    (fun i (id, wall_s, ok, alloc_words) ->
      (* alloc_mwords: millions of words the experiment allocated on
         its domain; alloc_mwords_per_s is the rate, the number the
         fault-path allocation work moves. *)
      out
        "%s\n    {\"id\": \"%s\", \"wall_s\": %.3f, \"alloc_mwords\": \
         %.1f, \"alloc_mwords_per_s\": %.1f, \"ok\": %b}"
        (if i = 0 then "" else ",")
        (json_escape id) wall_s (alloc_words /. 1e6)
        (if wall_s > 0.0 then alloc_words /. 1e6 /. wall_s else 0.0)
        ok)
    r.experiments;
  out "\n  ]\n}\n";
  close_out oc;
  Sys.rename tmp file;
  Printf.printf "[bench summary written to %s]\n%!" file

(* ------------------------------------------------------------------ *)
(* Experiment reproduction mode                                        *)
(* ------------------------------------------------------------------ *)

let run_experiments ~record ~scale ids =
  let chosen =
    match ids with
    | [] -> Experiments.Registry.all
    | ids ->
        List.filter_map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment %S (try: %s)\n" id
                  (String.concat " " (Experiments.Registry.ids ()));
                None)
          ids
  in
  Printf.printf
    "VSwapper (ASPLOS'14) reproduction bench - scale %.2f, %d experiments, \
     %d jobs\n\n\
     %!"
    scale (List.length chosen) record.jobs;
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Experiments.Registry.run_all ~jobs:record.jobs ~scale chosen
  in
  record.total_wall_s <- Unix.gettimeofday () -. t0;
  List.iter
    (fun (o : Experiments.Registry.outcome) ->
      let id = o.exp.Experiments.Exp.id in
      (match o.output with
      | Ok out ->
          print_endline out;
          Printf.printf "[%s completed in %.1fs wall]\n\n%!" id o.wall_s
      | Error exn ->
          Printf.printf "[%s FAILED after %.1fs: %s]\n\n%!" id o.wall_s
            (Printexc.to_string exn));
      record.experiments <-
        record.experiments
        @ [
            ( id,
              o.wall_s,
              (match o.output with Ok _ -> true | Error _ -> false),
              o.Experiments.Registry.alloc_words );
          ])
    outcomes;
  let t = counters_total (Experiments.Exp.counters ()) in
  let reads = t.Metrics.Stats.disk_batched_reads
  and batches = t.Metrics.Stats.disk_read_batches in
  if batches > 0 then
    Printf.printf
      "[disk queue: %d media reads served in %d batches (%d coalesced away), \
       mean span %.1f sectors]\n\n\
       %!"
      reads batches (reads - batches)
      (float_of_int t.Metrics.Stats.disk_batch_sectors /. float_of_int batches)

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = ref None in
  let jobs_flag = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: value :: rest -> (
        match int_of_string_opt value with
        | Some n when n >= 1 ->
            jobs_flag := Some n;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" value;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects a positive integer\n";
        exit 2
    | "--fault-seed" :: value :: rest -> (
        match int_of_string_opt value with
        | Some n ->
            Experiments.Exp.set_fault_knobs ~seed:n ();
            parse rest
        | None ->
            Printf.eprintf "--fault-seed expects an integer, got %S\n" value;
            exit 2)
    | [ "--fault-seed" ] ->
        Printf.eprintf "--fault-seed expects an integer\n";
        exit 2
    | "--fault-rate" :: value :: rest -> (
        match float_of_string_opt value with
        | Some r when r >= 0.0 ->
            Experiments.Exp.set_fault_knobs ~rate:r ();
            parse rest
        | Some _ | None ->
            Printf.eprintf "--fault-rate expects a non-negative float, got %S\n"
              value;
            exit 2)
    | [ "--fault-rate" ] ->
        Printf.eprintf "--fault-rate expects a non-negative float\n";
        exit 2
    | "--json" :: value :: rest
      when String.length value > 0 && value.[0] <> '-'
           && Experiments.Registry.find value = None ->
        json := Some value;
        parse rest
    | "--json" :: rest ->
        json := Some (Printf.sprintf "BENCH_%s.json" (today ()));
        parse rest
    | id :: rest ->
        ids := !ids @ [ id ];
        parse rest
  in
  parse args;
  let scale = scale () in
  (* --jobs beats VSWAPPER_JOBS beats the core-count default; size the
     shared pool once, before anything submits to it. *)
  (match !jobs_flag with
  | Some n -> Parallel.Pool.set_global_jobs n
  | None -> ());
  let record =
    {
      experiments = [];
      total_wall_s = 0.0;
      jobs = Parallel.Pool.jobs (Parallel.Pool.global ());
    }
  in
  run_experiments ~record ~scale !ids;
  match !json with
  | Some file -> write_json ~file ~scale record
  | None -> ()

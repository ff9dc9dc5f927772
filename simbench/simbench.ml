(* Simulator benchmark.

     simbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one named workload for about S seconds of host time, repeating
   it with the same seed, checks every repetition, and ends its output
   with one JSON line: [correct], [attempted], [failed] and [metrics].
   With --trace 0 the metrics are the end-to-end ones, measured with no
   probe installed; with --trace 1 they are the per-layer ones, from
   repetitions that install the probes, plus the per-layer cost runs of
   {!Layer_cost}.  Lines before the last start with "#" and carry the
   provenance and a readable copy of every figure.  Why each workload
   was chosen, and what each bypasses, is in NOTES.md. *)

open Simbench_helpers

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let nproc = max 1 (Domain.recommended_domain_count ())

(* ---- Command line ---------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let git_sha = ref "unknown"
let src_digest = ref "unknown"
let corrupt = ref false

let usage = "simbench --workload NAME --seed N --seconds S --trace 0|1"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME seqread-pair | anon-tiered | fleet");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "S host seconds to measure for");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--git-sha", Arg.Set_string git_sha, "SHA provenance: source revision");
    ("--src-digest", Arg.Set_string src_digest, "HEX provenance: source digest");
    ( "--corrupt-fingerprint",
      Arg.Set corrupt,
      " perturb the last repetition's fingerprint (checks the check)" );
  ]

(* ---- Workload configurations ----------------------------------------- *)

(* Sizes, recorded in the provenance line. *)
let seqread_file_mb = 200
let seqread_guest_mb = 512
let seqread_limit_mb = 100
let seqread_iterations = 8
let storm_guests = 2
let storm_mb = 128
let storm_threads = 4
let storm_rounds = 2
let fleet_hosts = 32
let fleet_epochs = 12

type wrap = Vmm.Workload.t -> Vmm.Workload.t

let seqread_config ~wrap vs =
  let workload =
    wrap
      (Workloads.Sysbench.workload ~iterations:seqread_iterations
         ~file_mb:seqread_file_mb ())
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = seqread_guest_mb;
      resident_limit_mb = Some seqread_limit_mb;
      warm_all = true;
      data_mb = seqread_file_mb + 64;
    }
  in
  (* Every knob is pinned, so no VSWAPPER_* override in the environment
     can reach the run. *)
  {
    (Vmm.Config.default ~guests:[ guest ]) with
    vs;
    host_mem_mb = seqread_guest_mb * 2;
    host_swap_mb = seqread_guest_mb * 3 / 2;
    disk = Storage.Disk.default_config;
    hbase = Host.Hconfig.default;
    manager = None;
    async_faults = false;
    tiers = Storage.Tiers.disk_only;
    faults = Faults.Config.none;
    epoch_faults = false;
    seed = !seed;
  }

let storm_limit_mb = storm_mb / 3
let storm_guest_mb = storm_mb + 16

let storm_tiers =
  {
    Storage.Tiers.disk_only with
    fast = Storage.Tiers.Czram;
    slow = Storage.Tiers.Disk_tier;
    fast_share_percent = 50;
    czram_admit_ratio = 1.0;
  }

let storm_disk =
  { Storage.Disk.default_config with num_queues = 4; per_queue_depth = 2 }

let storm_config ~wrap =
  let workload =
    wrap
      (Workloads.Swapstorm.workload ~threads:storm_threads ~rounds:storm_rounds
         ~mb:storm_mb ())
  in
  let guest =
    {
      (Vmm.Config.default_guest ~workload) with
      mem_mb = storm_guest_mb;
      resident_limit_mb = Some storm_limit_mb;
      data_mb = storm_mb + 64;
    }
  in
  {
    (Vmm.Config.default ~guests:(List.init storm_guests (fun _ -> guest))) with
    vs = Vswapper.Vsconfig.baseline;
    host_mem_mb = storm_guests * storm_guest_mb * 2;
    host_swap_mb = storm_guests * storm_guest_mb;
    disk = storm_disk;
    hbase = { Host.Hconfig.default with max_inflight_faults = 8 };
    manager = None;
    async_faults = true;
    tiers = storm_tiers;
    faults = Faults.Config.none;
    epoch_faults = false;
    seed = !seed;
  }

let fleet_config () =
  let d = Cluster.Fleet.default_config in
  {
    d with
    Cluster.Fleet.hosts = fleet_hosts;
    epochs = fleet_epochs;
    seed = !seed;
    mean_arrivals =
      d.Cluster.Fleet.mean_arrivals /. float d.Cluster.Fleet.hosts
      *. float fleet_hosts;
  }

(* ---- Traced-run captures --------------------------------------------- *)

type capture = {
  lat_us : Ibuf.t;  (* simulated swap-in latencies, all machines *)
  mutable streams : Layer_cost.stream list;  (* media accesses, latest first *)
  mutable gen_ns : int;  (* host time inside workload generators *)
  mutable gen_ops : int;
  mutable pending_sum : int;  (* engine occupancy, sampled per op *)
  mutable pending_n : int;
}

let new_capture () =
  {
    lat_us = Ibuf.create ();
    streams = [];
    gen_ns = 0;
    gen_ops = 0;
    pending_sum = 0;
    pending_n = 0;
  }

(* ---- One machine run ------------------------------------------------- *)

type machine_run = {
  wall : float;  (* Machine.build through the end of Machine.run *)
  setup : float;  (* Machine.build to the workload's first setup call *)
  build : float;
  stats : Metrics.Stats.t;
  guest_s : float;  (* summed simulated guest runtimes *)
  sim_end_us : int;
  words : float;  (* allocated on this domain during build + run *)
  minor_gcs : int;
  major_gcs : int;
  errors : string list;
}

(* [run_machine make cap] builds the configuration [make ~wrap] and runs
   it.  [wrap] stamps the first call of the workload's setup; with a
   capture it also times every generator call and installs the swap-in
   probe and the disk trace. *)
let run_machine make (cap : capture option) =
  let first_setup = ref None in
  let engine = ref None in
  let wrap_thread c (th : Vmm.Workload.thread) () =
    let t0 = Layer_cost.now_ns () in
    let op = th () in
    c.gen_ns <- c.gen_ns + (Layer_cost.now_ns () - t0);
    if Option.is_some op then begin
      c.gen_ops <- c.gen_ops + 1;
      if c.gen_ops land 255 = 0 then
        match !engine with
        | Some e ->
            c.pending_sum <- c.pending_sum + Sim.Engine.pending e;
            c.pending_n <- c.pending_n + 1
        | None -> ()
    end;
    op
  in
  let wrap (w : Vmm.Workload.t) =
    {
      w with
      Vmm.Workload.setup =
        (fun os rng ->
          if !first_setup = None then first_setup := Some (now_s ());
          let r = w.Vmm.Workload.setup os rng in
          match cap with
          | None -> r
          | Some c ->
              { r with Vmm.Workload.threads = List.map (wrap_thread c) r.threads });
    }
  in
  let cfg = make ~wrap in
  let gc0 = Gc.quick_stat () in
  let w0 = Layer_cost.words () in
  let t0 = now_s () in
  let outcome =
    try
      let m = Vmm.Machine.build cfg in
      let t1 = now_s () in
      engine := Some (Vmm.Machine.engine m);
      (match cap with
      | None -> ()
      | Some c ->
          Host.Hostmm.set_swapin_probe (Vmm.Machine.host m)
            (Some (fun ~gid:_ ~us -> Ibuf.push c.lat_us us));
          c.streams <- Layer_cost.capture (Vmm.Machine.disk m) :: c.streams);
      Ok (m, t1, Vmm.Machine.run m)
    with e -> Error e
  in
  let t2 = now_s () in
  let w1 = Layer_cost.words () in
  let gc1 = Gc.quick_stat () in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let build, stats, guest_s, sim_end_us =
    match outcome with
    | Error e ->
        fail "raised %s" (Printexc.to_string e);
        (0.0, Metrics.Stats.create (), 0.0, 0)
    | Ok (m, t1, r) ->
        (try Host.Hostmm.check_invariants (Vmm.Machine.host m)
         with e -> fail "invariant: %s" (Printexc.to_string e));
        if r.Vmm.Machine.hit_time_limit then fail "hit the time limit";
        let guest_s =
          Array.fold_left
            (fun acc (g : Vmm.Machine.guest_result) ->
              if g.oomed then fail "guest OOM-killed";
              match g.runtime with
              | Some t -> acc +. Sim.Time.to_sec_float t
              | None ->
                  fail "guest did not finish";
                  acc)
            0.0 r.Vmm.Machine.guests
        in
        if r.Vmm.Machine.stats.Metrics.Stats.engine_events_fired <= 0 then
          fail "no engine events";
        ( t1 -. t0,
          r.Vmm.Machine.stats,
          guest_s,
          Sim.Time.to_us r.Vmm.Machine.wall )
  in
  let setup =
    match !first_setup with
    | Some t -> t -. t0
    | None ->
        fail "workload setup never called";
        t2 -. t0
  in
  {
    wall = t2 -. t0;
    setup;
    build;
    stats;
    guest_s;
    sim_end_us;
    words = w1 -. w0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    errors = List.rev !errors;
  }

let machine_fingerprint runs =
  fingerprint
    (List.concat_map
       (fun r ->
         Metrics.Stats.fields r.stats
         @ [
             ("sim_end_us", r.sim_end_us);
             ("guest_us", int_of_float (r.guest_s *. 1e6));
           ])
       runs)

(* Peak resident set of this process since the last [reset_peak_rss]. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Lowers VmHWM to the current resident set, so each repetition reports
   its own peak rather than the run's: the run's peak would grow with the
   number of repetitions that fit in --seconds.  Where the kernel refuses,
   the peak stays cumulative. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* ---- Repetitions ----------------------------------------------------- *)

type fleet_run = {
  result : Cluster.Fleet.result;
  width : int;  (* pool width *)
  cpu_s : float;  (* process CPU seconds during Fleet.run *)
  pool : Parallel.Pool.stats;
}

(* One repetition of a workload, whatever its kind. *)
type rep = {
  r_wall : float;
  r_setup : float;
  r_events : int;
  r_guest_s : float;
  r_fp : int;
  r_errors : string list;
  r_traced : bool;  (* probes installed; for fleet, width 1 *)
  r_machines : machine_run list;  (* empty for fleet *)
  r_fleet : fleet_run option;
  r_words : float;  (* allocated on this domain; all of it at width 1 *)
  r_gcs : int * int;  (* minor, major collections seen by this domain *)
  r_cap : capture option;
  r_peak_mb : float;  (* VmHWM over this repetition *)
}

let machine_rep configs ~traced =
  let cap = if traced then Some (new_capture ()) else None in
  reset_peak_rss ();
  let runs = List.map (fun make -> run_machine make cap) configs in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 runs in
  {
    r_wall = sum (fun r -> r.wall);
    r_setup = sum (fun r -> r.setup);
    r_events =
      List.fold_left
        (fun a r -> a + r.stats.Metrics.Stats.engine_events_fired)
        0 runs;
    r_guest_s = sum (fun r -> r.guest_s);
    r_fp = machine_fingerprint runs;
    r_errors = List.concat_map (fun r -> r.errors) runs;
    r_traced = traced;
    r_machines = runs;
    r_fleet = None;
    r_words = sum (fun r -> r.words);
    r_gcs =
      List.fold_left
        (fun (mi, ma) r -> (mi + r.minor_gcs, ma + r.major_gcs))
        (0, 0) runs;
    r_cap = cap;
    r_peak_mb = peak_rss_mb ();
  }

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Pool creation takes well under a millisecond, so [setup_s] for fleet
   is the median of several timed creations, the last of which runs the
   fleet. *)
let setup_samples = 7

let fleet_rep ~width =
  let cfg = fleet_config () in
  reset_peak_rss ();
  let create () =
    let t0 = now_s () in
    let pool = Parallel.Pool.create ~jobs:width () in
    (pool, now_s () -. t0)
  in
  let spare =
    List.init (setup_samples - 1) (fun _ ->
        let pool, dt = create () in
        Parallel.Pool.shutdown pool;
        dt)
  in
  let pool, dt = create () in
  let setup = median (dt :: spare) in
  let t1 = now_s () in
  let c0 = cpu_s () in
  let w0 = Layer_cost.words () in
  let gc0 = Gc.quick_stat () in
  let outcome = try Ok (Cluster.Fleet.run ~pool cfg) with e -> Error e in
  let t2 = now_s () in
  let cpu = cpu_s () -. c0 in
  let allocated = Layer_cost.words () -. w0 in
  let gc1 = Gc.quick_stat () in
  let gcs =
    ( gc1.Gc.minor_collections - gc0.Gc.minor_collections,
      gc1.Gc.major_collections - gc0.Gc.major_collections )
  in
  let pstats = Parallel.Pool.stats pool in
  Parallel.Pool.shutdown pool;
  let events, guest_s, fp, errors, fleet =
    match outcome with
    | Error e -> (0, 0.0, 0, [ "fleet raised " ^ Printexc.to_string e ], None)
    | Ok r ->
        (* The report adds the per-epoch rows to what the counters say. *)
        ( r.Cluster.Fleet.totals.Metrics.Stats.engine_events_fired,
          float r.Cluster.Fleet.guest_seconds,
          mix_string
            (mix
               (fingerprint (Metrics.Stats.fields r.Cluster.Fleet.totals))
               r.Cluster.Fleet.fingerprint)
            (Cluster.Fleet.report r),
          (if r.Cluster.Fleet.committed_ok then []
           else [ "overcommit bound broken" ])
          @ (if r.Cluster.Fleet.migration_accounting_ok then []
             else [ "migration accounting broken" ]),
          Some { result = r; width; cpu_s = cpu; pool = pstats } )
  in
  {
    r_wall = t2 -. t1;
    r_setup = setup;
    r_events = events;
    r_guest_s = guest_s;
    r_fp = fp;
    r_errors = errors;
    r_traced = width = 1;
    r_machines = [];
    r_fleet = fleet;
    r_words = allocated;
    r_gcs = gcs;
    r_cap = None;
    r_peak_mb = peak_rss_mb ();
  }

(* ---- Workloads ------------------------------------------------------- *)

type kind = Machines of (wrap:wrap -> Vmm.Config.t) list | Fleet

let kind_of = function
  | "seqread-pair" ->
      Some
        (Machines
           [
             (fun ~wrap -> seqread_config ~wrap Vswapper.Vsconfig.baseline);
             (fun ~wrap -> seqread_config ~wrap Vswapper.Vsconfig.vswapper);
           ])
  | "anon-tiered" -> Some (Machines [ storm_config ])
  | "fleet" -> Some Fleet
  | _ -> None

let sizes = function
  | "seqread-pair" ->
      [
        ("file_mb", seqread_file_mb);
        ("guest_mb", seqread_guest_mb);
        ("resident_limit_mb", seqread_limit_mb);
        ("iterations", seqread_iterations);
        ("machines", 2);
      ]
  | "anon-tiered" ->
      [
        ("guests", storm_guests);
        ("storm_mb_per_guest", storm_mb);
        ("resident_limit_mb", storm_limit_mb);
        ("threads", storm_threads);
        ("rounds", storm_rounds);
        ("fast_share_percent", storm_tiers.Storage.Tiers.fast_share_percent);
      ]
  | _ -> [ ("hosts", fleet_hosts); ("epochs", fleet_epochs) ]

(* [repeat ~min_reps step] calls [step i] until the --seconds budget
   would be overrun by one more repetition of the typical length. *)
let repeat ~min_reps step =
  let t0 = now_s () in
  let budget = float !seconds in
  let rec go i acc =
    let elapsed = now_s () -. t0 in
    let typical = if i = 0 then 0.0 else elapsed /. float i in
    if i >= min_reps && elapsed +. typical > budget then List.rev acc
    else go (i + 1) (step i :: acc)
  in
  go 0 []

(* ---- Metrics --------------------------------------------------------- *)

let med f reps = median (List.map f reps)
let metric name unit_ value = { name; value; unit_ }

let end_to_end reps =
  [
    metric "wall_s" "s" (med (fun r -> r.r_wall) reps);
    metric "events_per_s" "1/s" (med (fun r -> float r.r_events /. r.r_wall) reps);
    metric "guest_s_per_wall_s" "s/s" (med (fun r -> r.r_guest_s /. r.r_wall) reps);
    metric "setup_s" "s" (med (fun r -> r.r_setup) reps);
    metric "peak_rss_mb" "MB" (med (fun r -> r.r_peak_mb) reps);
  ]

(* Simulated headline of seqread-pair: baseline over vswapper runtime. *)
let sim_speedup rep =
  match rep.r_machines with
  | [ base; vs ] when vs.guest_s > 0.0 -> base.guest_s /. vs.guest_s
  | _ -> 0.0

let sum_stats runs =
  let acc = Metrics.Stats.create () in
  List.iter (fun r -> Metrics.Stats.add acc r.stats) runs;
  acc

let ( // ) a b = ratio (float a) (float b)

(* Per-layer metrics of a traced repetition plus the layer cost runs. *)
let per_layer ~reps ~traced ~overhead_s =
  let cap = match traced.r_cap with Some c -> c | None -> new_capture () in
  let s, vmm_runs =
    match traced.r_fleet with
    | Some f -> (f.result.Cluster.Fleet.totals, [])
    | None -> (sum_stats traced.r_machines, traced.r_machines)
  in
  let open Metrics.Stats in
  let events = s.engine_events_fired in
  let faults = s.host_context_faults + s.guest_context_faults in
  let run_s = List.fold_left (fun a r -> a +. (r.wall -. r.setup)) 0.0 vmm_runs in
  (* Simulated time summed over every engine (one per machine or host). *)
  let sim_us =
    match traced.r_fleet with
    | Some _ ->
        let f = fleet_config () in
        f.Cluster.Fleet.hosts * f.Cluster.Fleet.epochs * f.Cluster.Fleet.epoch_s
        * 1_000_000
    | None -> List.fold_left (fun a r -> a + r.sim_end_us) 0 vmm_runs
  in
  (* Fleet shards are not observable from outside, so their occupancy
     is taken from the result instead: every live VM keeps one driver
     timer armed on its host's engine, so a shard holds about as many
     pending events as it has live VMs, averaged over the barriers. *)
  let pending =
    match traced.r_fleet with
    | Some f ->
        let live =
          List.fold_left (fun a row -> a + row.Cluster.Fleet.live) 0
            f.result.Cluster.Fleet.rows
        in
        let cfg = fleet_config () in
        max 1 (live / (cfg.Cluster.Fleet.epochs * cfg.Cluster.Fleet.hosts))
    | None -> if cap.pending_n > 0 then cap.pending_sum / cap.pending_n else 1
  in
  let mean_delay_us = int_of_float (ratio (float (pending * sim_us)) (float (max 1 events))) in
  let eng =
    Layer_cost.engine ~pending ~mean_delay_us ~events:(min events 2_000_000)
  in
  let ns_ev = eng.Layer_cost.ns_per_unit in
  Printf.printf "# engine cost run: %d pending, mean event lifetime %d us\n" pending
    mean_delay_us;
  (* The cost runs' parameters: the workload's disk and tier
     configuration, and one guest's page count, pages touched, cgroup cap
     and share of the host swap area. *)
  let disk_cfg, tiers_cfg, pages, touched, limit, swap_slots =
    let p = Storage.Geom.pages_of_mb in
    match !workload with
    | "seqread-pair" ->
        ( Storage.Disk.default_config,
          Storage.Tiers.disk_only,
          p seqread_guest_mb,
          p seqread_guest_mb,
          p seqread_limit_mb,
          p (seqread_guest_mb * 3 / 2) )
    | "anon-tiered" ->
        ( storm_disk,
          storm_tiers,
          p storm_guest_mb,
          p storm_mb,
          p storm_limit_mb,
          p storm_guest_mb )
    | _ ->
        (* A fleet host's memory, overcommitted, is the guest side. *)
        let d = Cluster.Fleet.default_config in
        let host = p d.Cluster.Fleet.host_mem_mb in
        let pages = int_of_float (float host *. d.Cluster.Fleet.overcommit) in
        ( Storage.Disk.default_config,
          Storage.Tiers.disk_only,
          pages,
          pages,
          host,
          p d.Cluster.Fleet.host_swap_mb )
  in
  (* Every machine's media accesses count; the first machine's stream
     (the baseline half of seqread-pair) is the one replayed. *)
  let accesses =
    List.fold_left (fun a st -> a + st.Layer_cost.accesses) 0 cap.streams
  in
  let ns_acc =
    match List.rev cap.streams with
    | st :: _ when st.Layer_cost.accesses > 0 ->
        (Layer_cost.disk ~config:disk_cfg ~ns_per_event:ns_ev st).Layer_cost.ns_per_unit
    | _ -> 0.0
  in
  (* The host and tier cost runs are capped at 32k touched pages so the
     traced run stays inside its time budget; every size scales with the
     cap. *)
  let scale n = n * min touched 32_768 / touched in
  let hst =
    Layer_cost.host ~vs:Vswapper.Vsconfig.baseline ~pages:(scale pages)
      ~touched:(scale touched) ~limit:(scale limit)
      ~swap_slots:(scale swap_slots) ~passes:2 ~ns_per_event:ns_ev
  in
  let tiered = not (tiers_cfg = Storage.Tiers.disk_only) in
  let tie =
    Layer_cost.tiers ~tiers_cfg ~disk_cfg ~area_slots:(scale swap_slots)
      ~slots:(scale (touched - limit)) ~ns_per_event:ns_ev
  in
  let mpr = Layer_cost.mapper ~pages in
  let itb = Layer_cost.itbl ~pages in
  let flr = Layer_cost.flru ~pages in
  let gen_ns = ratio (float cap.gen_ns) (float cap.gen_ops) in
  let swap_ops = if tiered then s.host_swapins + s.host_swapouts else 0 in
  let mapper_ops = s.mapper_discards + s.mapper_refetches + s.mapper_invalidations in
  let ledger_run_s =
    match traced.r_fleet with Some _ -> traced.r_wall | None -> run_s
  in
  let ledger =
    [
      { layer = "sim"; count = float events; ns_per_unit = ns_ev };
      { layer = "host"; count = float faults; ns_per_unit = hst.Layer_cost.ns_per_unit };
      { layer = "storage.disk"; count = float accesses; ns_per_unit = ns_acc };
      { layer = "storage.tiers"; count = float swap_ops; ns_per_unit = tie.Layer_cost.ns_per_unit };
      { layer = "core.mapper"; count = float mapper_ops; ns_per_unit = mpr.Layer_cost.ns_per_unit };
      { layer = "workloads"; count = float cap.gen_ops; ns_per_unit = gen_ns };
    ]
  in
  List.iter
    (fun e ->
      Printf.printf "# ledger %-14s %12.0f x %10.1f ns = %8.4f s\n" e.layer
        e.count e.ns_per_unit
        (e.count *. e.ns_per_unit /. 1e9))
    ledger;
  Printf.printf "# ledger total %.4f s of %.4f s\n" (ledger_s ledger) ledger_run_s;
  let lat = summarize (Ibuf.to_array cap.lat_us) in
  let fleet_field f =
    match traced.r_fleet with Some fr -> f fr.result | None -> 0
  in
  let runs_at pred =
    List.filter_map
      (fun r ->
        match r.r_fleet with
        | Some f when pred f.width -> Some (r.r_wall, f)
        | _ -> None)
      reps
  in
  let cpu_util, speedup, helper_jobs =
    match (runs_at (fun w -> w > 1), runs_at (fun w -> w = 1)) with
    | (_ :: _ as wide), (_ :: _ as serial) ->
        let m f runs = median (List.map f runs) in
        ( m (fun (wall, f) -> f.cpu_s /. (wall *. float f.width)) wide,
          m fst serial /. m fst wide,
          m (fun (_, f) -> float f.pool.Parallel.Pool.helper_jobs) wide )
    | _ -> (0.0, 0.0, 0.0)
  in
  let total f = List.fold_left (fun a r -> a +. f r) 0.0 vmm_runs in
  (* At width 1 every word is allocated on this domain. *)
  let words_per_event = ratio traced.r_words (float events) in
  let c = metric in
  let cnt name v = c name "count" (float v) in
  [
    cnt "sim.events" events;
    c "sim.cancels_per_event" "ratio" (s.engine_cancels_reclaimed // events);
    cnt "sim.cascades" s.engine_cascades;
    c "sim.ns_per_event" "ns" ns_ev;
    cnt "sim.swapin_samples" lat.samples;
    c "sim.swapin_p50_us" "us" (float lat.p50);
    c "sim.swapin_tail_us" "us" (float lat.tail);
    c "sim.swapin_tail_pct" "%" lat.tail_pct;
    c "sim.swapin_p99_us" "us" (float (Option.value lat.p99 ~default:0));
    c "sim.speedup" "x" (sim_speedup traced);
    cnt "host.faults" faults;
    cnt "host.swapins" s.host_swapins;
    cnt "host.swapouts" s.host_swapouts;
    cnt "host.pages_scanned" s.pages_scanned;
    c "host.scan_useful_ratio" "ratio"
      ((s.host_swapouts + s.mapper_discards) // s.pages_scanned);
    c "host.ns_per_fault" "ns" hst.Layer_cost.ns_per_unit;
    c "host.words_per_fault" "words" hst.Layer_cost.words_per_unit;
    c "host.async_merge_ratio" "ratio" (s.async_waiter_merges // faults);
    cnt "storage.disk.ops" s.disk_ops;
    cnt "storage.disk.read_batches" s.disk_read_batches;
    c "storage.disk.coalesce_ratio" "ratio" (s.disk_batched_reads // s.disk_read_batches);
    c "storage.disk.seq_fraction" "ratio" (s.disk_seq_reads // s.disk_read_batches);
    c "storage.disk.ns_per_access" "ns" ns_acc;
    c "storage.tiers.admit_ratio" "ratio"
      (s.tier_admissions // (s.tier_admissions + s.tier_rejects));
    cnt "storage.tiers.promotions" s.tier_promotions;
    cnt "storage.tiers.demotions" s.tier_demotions;
    c "storage.tiers.fast_swapin_share" "ratio"
      (s.tier_fast_swapins // (s.tier_fast_swapins + s.tier_slow_swapins));
    c "storage.tiers.ns_per_swap_op" "ns" tie.Layer_cost.ns_per_unit;
    c "storage.tiers.words_per_swap_op" "words" tie.Layer_cost.words_per_unit;
    cnt "core.mapper_discards" s.mapper_discards;
    c "core.mapper_refetch_ratio" "ratio" (s.mapper_refetches // s.mapper_discards);
    cnt "core.preventer_remaps" s.preventer_remaps;
    cnt "core.pathologies.silent_writes" s.silent_swap_writes;
    cnt "core.pathologies.stale_reads" s.stale_reads;
    cnt "core.pathologies.false_reads" s.false_reads;
    c "core.mapper.ns_per_op" "ns" mpr.Layer_cost.ns_per_unit;
    cnt "guest.major_faults" s.guest_major_faults;
    cnt "guest.swapins" s.guest_swapins;
    cnt "workloads.ops" cap.gen_ops;
    c "workloads.gen_ns_per_op" "ns" gen_ns;
    c "mem.itbl.ns_per_op" "ns" itb.Layer_cost.ns_per_unit;
    c "mem.flru.ns_per_op" "ns" flr.Layer_cost.ns_per_unit;
    c "vmm.build_s" "s" (total (fun r -> r.build));
    c "vmm.boot_s" "s" (total (fun r -> r.setup -. r.build));
    c "vmm.run_s" "s" run_s;
    c "vmm.words_per_event" "words" words_per_event;
    cnt "gc.minor_collections" (fst traced.r_gcs);
    cnt "gc.major_collections" (snd traced.r_gcs);
    c "parallel.cpu_util" "ratio" cpu_util;
    c "parallel.speedup" "x" speedup;
    c "parallel.helper_jobs" "count" helper_jobs;
    cnt "cluster.migrations" (fleet_field (fun r -> r.Cluster.Fleet.migrations));
    cnt "cluster.migrations_aborted" (fleet_field (fun r -> r.Cluster.Fleet.migrations_aborted));
    cnt "cluster.throttled_batches"
      (fleet_field (fun r -> r.Cluster.Fleet.migration_throttled_batches));
    cnt "cluster.rejected" (fleet_field (fun r -> r.Cluster.Fleet.guests_rejected));
    c "cluster.heap_words_per_page" "words"
      (match traced.r_fleet with
       | Some f ->
           f.result.Cluster.Fleet.live_heap_words
           // f.result.Cluster.Fleet.peak_live_pages
       | None -> 0.0);
    c "ledger.coverage" "ratio" (coverage ledger ~run_s:ledger_run_s);
    c "trace.overhead_s" "s" overhead_s;
  ]

(* ---- Main ------------------------------------------------------------ *)

let provenance ~pool_width =
  json_object
    [
      ("git_sha", json_string !git_sha);
      ("src_digest", json_string !src_digest);
      ("ocaml", json_string Sys.ocaml_version);
      ("nproc", string_of_int nproc);
      ("pool_width", string_of_int pool_width);
      ("engine", json_string (Sim.Engine.backend_name (Sim.Engine.default_backend ())));
      ("workload", json_string !workload);
      ("seed", string_of_int !seed);
      ("seconds", string_of_int !seconds);
      ("trace", string_of_int !trace);
      ( "sizes",
        json_object
          (List.map (fun (k, v) -> (k, string_of_int v)) (sizes !workload)) );
    ]

let print_metric m = Printf.printf "# %-34s %.6g %s\n" m.name m.value m.unit_

let main kind =
  let traced = !trace = 1 in
  let pool_width = match kind with Fleet -> nproc | Machines _ -> 1 in
  Printf.printf "# provenance %s\n%!" (provenance ~pool_width);
  (* [reps] are every repetition, all of them checked; [timed] are the
     ones the end-to-end metrics come from. *)
  let reps, timed =
    match kind with
    | Machines cs ->
        (* Traced and untraced repetitions alternate, so both see the
           same machine state and their difference is the overhead. *)
        let reps =
          if traced then
            repeat ~min_reps:2 (fun i -> machine_rep cs ~traced:(i mod 2 = 1))
          else repeat ~min_reps:3 (fun _ -> machine_rep cs ~traced:false)
        in
        (reps, reps)
    | Fleet when traced ->
        (* The traced run alternates width-1 and width-nproc repetitions:
           parallel.speedup comes only from widths measured here, and at
           width 1 every allocated word is counted on this domain. *)
        let reps =
          repeat ~min_reps:2 (fun i ->
              fleet_rep ~width:(if i mod 2 = 1 then 1 else nproc))
        in
        (reps, reps)
    | Fleet ->
        (* One width-1 repetition, outside the budget and the metrics, so
           the width-1 = width-nproc check runs here too. *)
        let serial = fleet_rep ~width:1 in
        let timed = repeat ~min_reps:3 (fun _ -> fleet_rep ~width:nproc) in
        (serial :: timed, timed)
  in
  let reps =
    if !corrupt then
      List.mapi
        (fun i r ->
          if i = List.length reps - 1 then { r with r_fp = r.r_fp lxor 1 } else r)
        reps
    else reps
  in
  (* A repetition fails on any check, or when its fingerprint (for
     fleet, with the report folded in) differs from the first
     repetition's.  Every fleet run has repetitions at width 1 and width
     nproc, so this is the width-1 = width-nproc check too. *)
  let verdicts =
    List.map2
      (fun r fp ->
        if r.r_errors <> [] then "FAILED: " ^ String.concat "; " r.r_errors
        else if fp then "FAILED: fingerprint differs"
        else "ok")
      reps
      (mismatched (List.map (fun r -> r.r_fp) reps))
  in
  List.iteri
    (fun i (r, verdict) ->
      Printf.printf "# rep %d%s wall_s=%.4f setup_s=%.4f events=%d fingerprint=%x %s\n"
        i
        (match r.r_fleet with
        | Some f -> Printf.sprintf " width=%d" f.width
        | None -> if r.r_traced then " traced" else "")
        r.r_wall r.r_setup r.r_events r.r_fp verdict)
    (List.combine reps verdicts);
  let attempted = List.length reps in
  let failed = List.length (List.filter (( <> ) "ok") verdicts) in
  Printf.printf "# failed_frac %.4f (%d of %d runs)\n" (ratio (float failed) (float attempted))
    failed attempted;
  (match kind with
  | Machines [ _; _ ] ->
      Printf.printf
        "# sim_speedup %.4f x  (baseline / vswapper simulated runtime; paper \
         fig9: baseline U-shaped ~40->20->40 s per iteration, vswapper flat \
         ~4 s; the model is not validated in absolute terms)\n"
        (med sim_speedup reps)
  | _ -> ());
  let metrics =
    if traced then begin
      let untraced = List.filter (fun r -> not r.r_traced) reps in
      let tr = List.filter (fun r -> r.r_traced) reps in
      let last_traced = List.nth tr (List.length tr - 1) in
      let overhead_s =
        match kind with
        | Fleet -> 0.0 (* nothing is installed in a fleet run *)
        | Machines _ -> med (fun r -> r.r_wall) tr -. med (fun r -> r.r_wall) untraced
      in
      per_layer ~reps ~traced:last_traced ~overhead_s
    end
    else end_to_end timed
  in
  List.iter print_metric metrics;
  print_endline
    (result_line ~correct:(failed = 0) ~attempted ~failed metrics)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match kind_of !workload with
  | None ->
      prerr_endline ("simbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
  | Some kind -> main kind

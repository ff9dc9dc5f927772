type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : scale:float -> string;
}

type config_kind =
  | Baseline
  | Balloon_baseline
  | Mapper_only
  | Vswapper_full
  | Balloon_vswapper

let config_name = function
  | Baseline -> "baseline"
  | Balloon_baseline -> "balloon+base"
  | Mapper_only -> "mapper"
  | Vswapper_full -> "vswapper"
  | Balloon_vswapper -> "balloon+vswap"

let all_configs =
  [ Baseline; Balloon_baseline; Mapper_only; Vswapper_full; Balloon_vswapper ]

let vs_of = function
  | Baseline | Balloon_baseline -> Vswapper.Vsconfig.baseline
  | Mapper_only -> Vswapper.Vsconfig.mapper_only
  | Vswapper_full | Balloon_vswapper -> Vswapper.Vsconfig.vswapper

let ballooned = function
  | Balloon_baseline | Balloon_vswapper -> true
  | Baseline | Mapper_only | Vswapper_full -> false

let mb scale x = max 16 (int_of_float (float_of_int x *. scale))
let scaled_int scale x ~min:lo = max lo (int_of_float (float_of_int x *. scale))

type mark = { index : int; at : Sim.Time.t; snapshot : Metrics.Stats.t }

let mark_collector machine_ref =
  let acc = ref [] in
  let on_mark index =
    match !machine_ref with
    | None -> ()
    | Some m ->
        acc :=
          {
            index;
            at = Sim.Engine.now (Vmm.Machine.engine m);
            snapshot = Metrics.Stats.copy (Vmm.Machine.stats m);
          }
          :: !acc
  in
  (on_mark, fun () -> List.rev !acc)

type run_out = {
  runtime_s : float option;
  per_guest_s : float option array;
  stats : Metrics.Stats.t;
  oomed : bool;
  marks : mark list;
}

(* Shared smoke cap: VSWAPPER_SMOKE=1 tells the heavyweight sweeps
   (fleet, memscale) to run a drastically reduced grid so the dune smoke
   aliases stay cheap.  One env var instead of one per experiment. *)
let smoke () =
  match Sys.getenv_opt "VSWAPPER_SMOKE" with
  | Some s ->
      let s = String.trim s in
      s <> "" && s <> "0"
  | None -> false

let exp_tag : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_exp_tag tag f =
  let saved = Domain.DLS.get exp_tag in
  Domain.DLS.set exp_tag tag;
  Fun.protect ~finally:(fun () -> Domain.DLS.set exp_tag saved) f

(* Per-experiment counters.  Every machine (or fleet) run folds its
   stats into the [Stats.t] of the experiment it ran for, named by the
   domain-local tag: the registry tags the job running an experiment,
   and [shard] re-establishes the submitting experiment's tag around
   every sub-job — the pool's help-execution means a domain waiting in
   one experiment may execute another experiment's shard, so the tag
   must travel with the job, not the domain.  [Stats.add] is commutative
   and associative, so the counters are deterministic at any job
   count. *)
let counters_tbl : (string, Metrics.Stats.t) Hashtbl.t = Hashtbl.create 31
let counters_mu = Mutex.create ()

let record s =
  match Domain.DLS.get exp_tag with
  | None -> ()
  | Some id ->
      Mutex.protect counters_mu (fun () ->
          let acc =
            match Hashtbl.find_opt counters_tbl id with
            | Some acc -> acc
            | None ->
                let acc = Metrics.Stats.create () in
                Hashtbl.add counters_tbl id acc;
                acc
          in
          Metrics.Stats.add acc s)

let counters () =
  Mutex.protect counters_mu (fun () ->
      Hashtbl.fold
        (fun id s acc -> (id, Metrics.Stats.copy s) :: acc)
        counters_tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Fault knobs (bench --fault-seed / --fault-rate): consumed by the
   resilience experiment.  Set once before the sweep starts, so worker
   domains only ever read them. *)
let fault_seed = Atomic.make 1
let fault_rate = Atomic.make 0.0

let set_fault_knobs ?seed ?rate () =
  (match seed with Some s -> Atomic.set fault_seed s | None -> ());
  match rate with Some r -> Atomic.set fault_rate r | None -> ()

let fault_seed_knob () = Atomic.get fault_seed
let fault_rate_knob () = Atomic.get fault_rate

let run_machine ?(get_marks = fun () -> []) machine =
  let result = Vmm.Machine.run machine in
  record result.Vmm.Machine.stats;
  let to_s = Option.map Sim.Time.to_sec_float in
  let per_guest_s =
    Array.map (fun g -> to_s g.Vmm.Machine.runtime) result.Vmm.Machine.guests
  in
  let oomed =
    Array.exists (fun g -> g.Vmm.Machine.oomed) result.Vmm.Machine.guests
  in
  {
    runtime_s = per_guest_s.(0);
    per_guest_s;
    stats = result.Vmm.Machine.stats;
    oomed;
    marks = get_marks ();
  }

let opt_s r = r.runtime_s

(* Fan a per-configuration loop out over the shared global pool.  [map]
   on the global pool is re-entrant — the calling domain helps execute
   queued jobs instead of blocking — so experiments sharded here may
   themselves be jobs of the outer registry sweep.  Results come back in
   submission order, and a job's exception is re-raised here, so a
   failing point fails the whole experiment exactly as the serial loop
   did (the registry captures it per-experiment). *)
let shard f xs =
  (* Sub-jobs inherit the submitting experiment's counter tag: they may
     execute on any pool domain (including one that is itself running a
     different experiment and merely helping). *)
  let tag = Domain.DLS.get exp_tag in
  let f x = with_exp_tag tag (fun () -> f x) in
  Parallel.Pool.map (Parallel.Pool.global ()) f xs
  |> List.map (function Ok v -> v | Error e -> raise e)

(* [group k xs] splits [xs] into consecutive chunks of [k] — undoes the
   configs-major flattening the sweeps use to submit every (config,
   point) pair as one pool job. *)
let group k xs =
  let rec take i acc l =
    if i = 0 then (List.rev acc, l)
    else
      match l with
      | [] -> (List.rev acc, [])
      | x :: r -> take (i - 1) (x :: acc) r
  in
  let rec go = function
    | [] -> []
    | l ->
        let c, rest = take k [] l in
        c :: go rest
  in
  if k <= 0 then invalid_arg "Exp.group" else go xs

let header ~id ~title ~paper_claim body =
  let line = String.make 72 '=' in
  Printf.sprintf "%s\n%s: %s\npaper: %s\n%s\n%s" line (String.uppercase_ascii id)
    title paper_claim line body

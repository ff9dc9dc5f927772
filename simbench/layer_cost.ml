(* Per-layer cost runs.  Each one builds a fresh instance of a single
   layer, calls its public functions with the workload's own parameters,
   and reports the host cost per unit of work.  Costs are self costs:
   a run's engine events are charged at the engine run's rate, and
   its disk traffic is captured and replayed on a fresh drive, and both
   are taken off, so the ledger can add the layers up without counting
   anything twice.
   Allocation is counted with [Gc.counters] on the calling domain, which
   is the only domain a cost run uses. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type cost = { ns_per_unit : float; words_per_unit : float }

let self_cost ~units ~dt_ns ~words ~deduct_ns =
  let u = float (max 1 units) in
  {
    ns_per_unit = Float.max 0.0 ((float dt_ns -. deduct_ns) /. u);
    words_per_unit = words /. u;
  }

let fired e = (Sim.Engine.telemetry e).Sim.Engine.events_fired

(* Times [f ()] and returns its wall ns and allocated words. *)
let measure f =
  let w0 = words () in
  let t0 = now_ns () in
  f ();
  let dt = now_ns () - t0 in
  (dt, words () -. w0)

(* Engine: [pending] self-rescheduling timers whose delays average the
   workload's own mean event lifetime (Little's law: pending / rate). *)
let engine ~pending ~mean_delay_us ~events =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.of_int 1 in
  let span = max 2 (2 * mean_delay_us) in
  let left = ref events in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Sim.Engine.run_after e (Sim.Time.us (1 + Sim.Rng.int rng span)) tick
    end
  in
  for _ = 1 to max 1 pending do
    Sim.Engine.run_after e (Sim.Time.us (1 + Sim.Rng.int rng span)) tick
  done;
  let dt, words = measure (fun () -> Sim.Engine.run e) in
  self_cost ~units:(fired e) ~dt_ns:dt ~words ~deduct_ns:0.0

(* A captured media-access stream, at most [max_accesses] long. *)
type stream = {
  kinds : Simbench_helpers.Ibuf.t;  (* 0 read, 1 write *)
  sectors : Simbench_helpers.Ibuf.t;
  nsectors : Simbench_helpers.Ibuf.t;
  mutable accesses : int;  (* all accesses seen, kept or not *)
}

let max_accesses = 100_000

let capture d =
  let open Simbench_helpers in
  let s =
    {
      kinds = Ibuf.create ();
      sectors = Ibuf.create ();
      nsectors = Ibuf.create ();
      accesses = 0;
    }
  in
  Storage.Disk.set_trace d
    (Some
       (fun kind ~head:_ ~sector ~nsectors ->
         s.accesses <- s.accesses + 1;
         if Ibuf.length s.sectors < max_accesses then begin
           Ibuf.push s.kinds (if kind = Storage.Disk.Read then 0 else 1);
           Ibuf.push s.sectors sector;
           Ibuf.push s.nsectors nsectors
         end));
  s

(* Disk: replays a captured stream through [Disk.submit] on a fresh
   drive, one request at a time, each submitted when the previous
   completes. *)
let disk ~config ~ns_per_event s =
  let open Simbench_helpers in
  let e = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let d = Storage.Disk.create ~engine:e ~stats config in
  let n = Ibuf.length s.sectors in
  let i = ref 0 in
  let rec next () =
    if !i < n then begin
      let k = !i in
      incr i;
      let kind =
        if Ibuf.get s.kinds k = 0 then Storage.Disk.Read else Storage.Disk.Write
      in
      Storage.Disk.submit d ~sector:(Ibuf.get s.sectors k)
        ~nsectors:(Ibuf.get s.nsectors k) ~kind (fun _ -> next ())
    end
  in
  let dt, words =
    measure (fun () ->
        next ();
        Sim.Engine.run e)
  in
  self_cost ~units:n ~dt_ns:dt ~words
    ~deduct_ns:(float (fired e) *. ns_per_event)

(* Self time of a cost run's own disk traffic: its stream replayed on a
   fresh drive of the same configuration, scaled to every access. *)
let disk_self_ns ~config ~ns_per_event s =
  if s.accesses = 0 then 0.0
  else (disk ~config ~ns_per_event s).ns_per_unit *. float s.accesses

(* Tiers: swap [slots] pages out to an [area_slots]-slot area, then back
   in, with the workload's tier configuration and disk queues. *)
let tiers ~tiers_cfg ~disk_cfg ~area_slots ~slots ~ns_per_event =
  let e = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let d = Storage.Disk.create ~engine:e ~stats disk_cfg in
  let own = capture d in
  let swap = Storage.Swap_area.create ~base_sector:0 ~nslots:area_slots in
  let t = Storage.Tiers.create ~engine:e ~stats ~disk:d ~swap tiers_cfg in
  let queues = max 1 disk_cfg.Storage.Disk.num_queues in
  let used = ref [] in
  let dt, words =
    measure (fun () ->
        for i = 0 to slots - 1 do
          match Storage.Swap_area.alloc swap (Storage.Content.fresh_anon ()) with
          | Some slot ->
              used := slot :: !used;
              Storage.Tiers.swap_out t ~slot ~queue:(i mod queues)
          | None -> ()
        done;
        Sim.Engine.run e;
        let rec swap_in = function
          | [] -> ()
          | slot :: rest ->
              Storage.Tiers.swap_in t ~slot
                ~sector:(Storage.Swap_area.sector_of_slot swap slot)
                ~nsectors:Storage.Geom.sectors_per_page ~queue:(slot mod queues)
                ~attempt:0 (fun _ -> swap_in rest)
        in
        swap_in (List.rev !used);
        Sim.Engine.run e)
  in
  self_cost ~units:(2 * List.length !used) ~dt_ns:dt ~words
    ~deduct_ns:
      ((float (fired e) *. ns_per_event)
      +. disk_self_ns ~config:disk_cfg ~ns_per_event own)

(* Host fault path: one guest of [pages] pages under a [limit]-frame
   cgroup cap, with [swap_slots] of host swap, writes its first [touched]
   pages once (untimed), then reads them back in [passes] timed
   sequential sweeps, each touch issued when the previous completes.  The
   unit is a fault counted by the host, as in the workload's
   [host.faults]. *)
let host ~vs ~pages ~touched ~limit ~swap_slots ~passes ~ns_per_event =
  let e = Sim.Engine.create () in
  let stats = Metrics.Stats.create () in
  let d = Storage.Disk.create ~engine:e ~stats Storage.Disk.default_config in
  let hv_sectors = Storage.Geom.sectors_of_pages (Storage.Geom.pages_of_mb 64) in
  let vd = Storage.Vdisk.create ~id:0 ~base_sector:hv_sectors ~nblocks:pages in
  let swap =
    Storage.Swap_area.create ~base_sector:(Storage.Vdisk.end_sector vd)
      ~nslots:swap_slots
  in
  let config =
    Host.Hconfig.with_memory_mb Host.Hconfig.default
      (2 * Storage.Geom.mb_of_pages pages + 64)
  in
  let h =
    Host.Hostmm.create ~engine:e ~disk:d ~stats ~config ~vsconfig:vs ~swap
      ~hv_base_sector:0 ()
  in
  let guest =
    Host.Hostmm.register_guest h ~vdisk:vd ~gpa_pages:pages
      ~resident_limit:(Some limit)
  in
  let rec write gpa () =
    if gpa < touched then
      Host.Hostmm.rep_write h ~guest ~gpa
        ~content:(Storage.Content.fresh_anon ())
        (write (gpa + 1))
  in
  write 0 ();
  Sim.Engine.run e;
  let rec read pass gpa () =
    if gpa = touched then (if pass + 1 < passes then read (pass + 1) 0 ())
    else Host.Hostmm.touch_read h ~guest ~gpa (fun _ -> read pass (gpa + 1) ())
  in
  let faults () =
    stats.Metrics.Stats.host_context_faults
    + stats.Metrics.Stats.guest_context_faults
  in
  let f0 = faults () and ev0 = fired e in
  let own = capture d in
  let dt, words =
    measure (fun () ->
        read 0 0 ();
        Sim.Engine.run e)
  in
  Host.Hostmm.check_invariants h;
  self_cost ~units:(faults () - f0) ~dt_ns:dt ~words
    ~deduct_ns:
      ((float (fired e - ev0) *. ns_per_event)
      +. disk_self_ns ~config:Storage.Disk.default_config ~ns_per_event own)

(* Mapper: track, look up, invalidate and untrack [pages] pages. *)
let mapper ~pages =
  let stats = Metrics.Stats.create () in
  let m = Vswapper.Mapper.create ~stats () in
  let dt, words =
    measure (fun () ->
        for gpa = 0 to pages - 1 do
          Vswapper.Mapper.track m ~gpa ~disk:0 ~block:gpa ~version:1
        done;
        for gpa = 0 to pages - 1 do
          ignore (Vswapper.Mapper.tracked_block m ~gpa)
        done;
        for block = 0 to (pages / 2) - 1 do
          ignore (Vswapper.Mapper.invalidate_block m ~disk:0 ~block)
        done;
        for gpa = 0 to pages - 1 do
          Vswapper.Mapper.untrack m ~gpa
        done)
  in
  self_cost ~units:((3 * pages) + (pages / 2)) ~dt_ns:dt ~words ~deduct_ns:0.0

(* Itbl: insert, find and remove [pages] scattered keys. *)
let itbl ~pages =
  let t = Mem.Itbl.create () in
  let key i = (i * 7919) land 0x3fffffff in
  let dt, words =
    measure (fun () ->
        for i = 0 to pages - 1 do
          Mem.Itbl.set t (key i) i
        done;
        for i = 0 to pages - 1 do
          ignore (Mem.Itbl.find t (key i) ~default:(-1))
        done;
        for i = 0 to pages - 1 do
          Mem.Itbl.remove t (key i)
        done)
  in
  self_cost ~units:(3 * pages) ~dt_ns:dt ~words ~deduct_ns:0.0

(* Flru: fill a list of [pages] frames, re-touch each (remove + push
   front), then evict all from the LRU end. *)
let flru ~pages =
  let arena = Mem.Flru.arena ~nodes:pages () in
  let l = Mem.Flru.list arena in
  let dt, words =
    measure (fun () ->
        for n = 0 to pages - 1 do
          Mem.Flru.push_front l n
        done;
        for n = 0 to pages - 1 do
          Mem.Flru.remove l n;
          Mem.Flru.push_front l n
        done;
        while Mem.Flru.pop_back l <> None do
          ()
        done)
  in
  self_cost ~units:(4 * pages) ~dt_ns:dt ~words ~deduct_ns:0.0

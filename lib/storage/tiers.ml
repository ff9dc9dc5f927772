type kind = Disk_tier | Czram | Remote

type config = {
  fast : kind;
  slow : kind;
  fast_share_percent : int;
  czram_seed : int;
  czram_admit_ratio : float;
  czram_compress_us : int;
  czram_decompress_us : int;
  remote_rtt_us : int;
  remote_gbps : float;
  writeback_idle_us : int;
  writeback_batch : int;
  tier_error_budget : int;
  tier_probe_us : int;
}

let disk_only =
  {
    fast = Disk_tier;
    slow = Disk_tier;
    fast_share_percent = 50;
    czram_seed = 0;
    czram_admit_ratio = 0.75;
    czram_compress_us = 10;
    czram_decompress_us = 5;
    remote_rtt_us = 20;
    remote_gbps = 10.0;
    writeback_idle_us = 2_000_000;
    writeback_batch = 64;
    tier_error_budget = 0;
    tier_probe_us = 500_000;
  }

let kind_to_string = function
  | Disk_tier -> "disk"
  | Czram -> "czram"
  | Remote -> "remote"

let pair_to_string cfg =
  if cfg.fast = Disk_tier && cfg.slow = Disk_tier then "disk"
  else kind_to_string cfg.fast ^ "+" ^ kind_to_string cfg.slow

type t = {
  engine : Sim.Engine.t;
  stats : Metrics.Stats.t;
  disk : Disk.t;
  swap : Swap_area.t;
  cfg : config;
  passthrough : bool;
  faults : Faults.Plan.t;
  fast : Backend.t;
  slow : Backend.t;
  fast_cap : int;  (* slot share of the fast tier *)
  mutable fast_slots : int;
  last_access : int array;  (* per-slot µs timestamp; [||] in passthrough *)
  mutable hand : int;  (* demotion clock hand *)
  (* Fast-tier health (Healthy <-> Degraded), active only when
     [tier_error_budget > 0] and the fast tier is not the disk. *)
  mutable fast_errors : int;  (* errors since the last recovery *)
  mutable fast_degraded : bool;
  mutable probe_attempt : int;  (* keys the remote probe's fault hash *)
}

let page_sectors = Geom.sectors_per_page
let now_us t = Sim.Time.to_us (Sim.Engine.now t.engine)

let create ?(faults = Faults.Plan.none) ~engine ~stats ~disk ~swap
    (cfg : config) =
  let passthrough = cfg.fast = Disk_tier && cfg.slow = Disk_tier in
  let nslots = Swap_area.nslots swap in
  let share = max 0 (min 100 cfg.fast_share_percent) in
  let fast_cap = nslots * share / 100 in
  let mk = function
    | Disk_tier -> Backend.of_disk disk
    | Czram ->
        (* Pool sized to the fast share at a typical compressed ratio;
           admission rejects both incompressible pages and overflow. *)
        Backend.czram ~faults ~engine ~seed:cfg.czram_seed
          ~admit_ratio:cfg.czram_admit_ratio
          ~pool_bytes:(max Geom.page_bytes (fast_cap * Geom.page_bytes * 3 / 5))
          ~compress_us:cfg.czram_compress_us
          ~decompress_us:cfg.czram_decompress_us ()
    | Remote ->
        Backend.remote ~faults ~engine ~rtt_us:cfg.remote_rtt_us
          ~bytes_per_us:(cfg.remote_gbps *. 125.0) ()
  in
  let t =
    {
      engine;
      stats;
      disk;
      swap;
      cfg;
      passthrough;
      faults;
      fast = mk cfg.fast;
      slow = mk cfg.slow;
      fast_cap;
      fast_slots = 0;
      last_access = (if passthrough then [||] else Array.make nslots 0);
      hand = 0;
      fast_errors = 0;
      fast_degraded = false;
      probe_attempt = 0;
    }
  in
  if not passthrough then
    Swap_area.set_on_free swap
      (Some
         (fun ~slot ~tier ->
           let sector = Swap_area.sector_of_slot swap slot in
           if tier = 0 then begin
             t.fast_slots <- t.fast_slots - 1;
             Backend.release t.fast ~sector ~nsectors:page_sectors
           end
           else Backend.release t.slow ~sector ~nsectors:page_sectors));
  t

(* Writeback of cold fast-tier slots, driven by capacity pressure (the
   zswap shrinker runs under allocation pressure, not on a timer — and
   a timer here would also stretch every run's final drain).  Only when
   the fast tier is at its slot cap does a swap-out advance a clock
   hand over [writeback_batch] slots and demote the fast-tier ones
   idle for [writeback_idle_us] or more; an under-capacity fast tier
   keeps its pages, however cold — demoting a RAM-resident page costs a
   disk write and buys nothing until the slots are needed. *)
let demote_slot t slot =
  let sector = Swap_area.sector_of_slot t.swap slot in
  Backend.release t.fast ~sector ~nsectors:page_sectors;
  Backend.write t.slow ~queue:0 ~sector ~nsectors:page_sectors;
  Swap_area.set_tier t.swap slot 1;
  t.fast_slots <- t.fast_slots - 1;
  t.stats.Metrics.Stats.tier_demotions <-
    t.stats.Metrics.Stats.tier_demotions + 1;
  t.stats.Metrics.Stats.tier_writeback_sectors <-
    t.stats.Metrics.Stats.tier_writeback_sectors + page_sectors

let demote_cold t =
  let n = Swap_area.nslots t.swap in
  let now = now_us t in
  for _ = 1 to min n t.cfg.writeback_batch do
    let slot = t.hand in
    t.hand <- (t.hand + 1) mod n;
    if
      Swap_area.is_allocated t.swap slot
      && Swap_area.tier t.swap slot = 0
      && now - t.last_access.(slot) >= t.cfg.writeback_idle_us
    then demote_slot t slot
  done

(* ------------------------------------------------------------------ *)
(* Fast-tier health: Healthy <-> Degraded                              *)
(* ------------------------------------------------------------------ *)

(* Failover watches the fast tier only — it is the only tier with a
   "next tier" to route to.  Slow-tier errors still count in the fault
   stats and surface to the caller, who retries or kills as usual. *)
let failover_enabled t =
  (not t.passthrough) && t.cfg.tier_error_budget > 0 && t.cfg.fast <> Disk_tier

(* While degraded, resident fast-tier slots drain back to the slow tier
   through the ordinary writeback path, [writeback_batch] slots per
   interval, ignoring idle age — the tier is being evacuated, not
   shrunk.  The interval keeps the evacuation from monopolizing the
   slow tier's write bandwidth in one burst. *)
let drain_interval_us = 10_000

let drain_batch t =
  let n = Swap_area.nslots t.swap in
  let budget = ref t.cfg.writeback_batch in
  let scanned = ref 0 in
  while !budget > 0 && !scanned < n && t.fast_slots > 0 do
    let slot = t.hand in
    t.hand <- (t.hand + 1) mod n;
    incr scanned;
    if Swap_area.is_allocated t.swap slot && Swap_area.tier t.swap slot = 0
    then begin
      demote_slot t slot;
      decr budget
    end
  done

let rec arm_drain t =
  Sim.Engine.run_after t.engine (Sim.Time.us drain_interval_us) (fun () ->
      if t.fast_degraded && t.fast_slots > 0 then begin
        drain_batch t;
        arm_drain t
      end)

(* Probe the degraded tier back to health.  The remote link re-hashes
   its transient stream under a fresh attempt number — a flapping link
   comes back when the hash clears.  A corrupted czram pool is treated
   as reinitialized after one probe interval (its pages were already
   evacuated by the drain), so it recovers on the first probe. *)
let rec arm_probe t =
  Sim.Engine.run_after t.engine (Sim.Time.us t.cfg.tier_probe_us) (fun () ->
      if t.fast_degraded then begin
        t.probe_attempt <- t.probe_attempt + 1;
        let healthy =
          match t.cfg.fast with
          | Remote ->
              Faults.Plan.remote_error t.faults ~sector:0
                ~attempt:t.probe_attempt
              = None
          | Czram | Disk_tier -> true
        in
        if healthy then begin
          t.fast_degraded <- false;
          t.fast_errors <- 0;
          t.stats.Metrics.Stats.tier_recovered_events <-
            t.stats.Metrics.Stats.tier_recovered_events + 1
        end
        else arm_probe t
      end)

let note_fast_error t =
  if failover_enabled t && not t.fast_degraded then begin
    t.fast_errors <- t.fast_errors + 1;
    if t.fast_errors >= t.cfg.tier_error_budget then begin
      t.fast_degraded <- true;
      t.stats.Metrics.Stats.tier_degraded_events <-
        t.stats.Metrics.Stats.tier_degraded_events + 1;
      arm_probe t;
      if t.fast_slots > 0 then arm_drain t
    end
  end

(* Non-disk backends don't own a stats handle, so the composite accounts
   their injected errors here (the disk self-counts in [Disk.submit]);
   fast-tier errors also feed the failover budget. *)
let account_read t ~tier (reply : Backend.reply) =
  match reply.result with
  | Ok () -> ()
  | Error e ->
      let kind = if tier = 0 then t.cfg.fast else t.cfg.slow in
      if kind <> Disk_tier then begin
        let s = t.stats in
        match e with
        | Faults.Error.Media ->
            s.Metrics.Stats.faults_injected_media <-
              s.Metrics.Stats.faults_injected_media + 1
        | Faults.Error.Transient ->
            s.Metrics.Stats.faults_injected_transient <-
              s.Metrics.Stats.faults_injected_transient + 1
      end;
      if tier = 0 then note_fast_error t

let swap_out t ~slot ~queue =
  let sector = Swap_area.sector_of_slot t.swap slot in
  if t.passthrough then
    Disk.write_buffered t.disk ~sector ~nsectors:page_sectors
  else if t.fast_degraded then begin
    (* Failover: the fast tier is evacuating; every new admission goes
       straight to the healthy tier. *)
    Swap_area.set_tier t.swap slot 1;
    t.stats.Metrics.Stats.tier_rejects <-
      t.stats.Metrics.Stats.tier_rejects + 1;
    t.stats.Metrics.Stats.tier_failover_routes <-
      t.stats.Metrics.Stats.tier_failover_routes + 1;
    Backend.write t.slow ~queue ~sector ~nsectors:page_sectors
  end
  else begin
    if t.fast_slots >= t.fast_cap && t.fast_cap > 0 then demote_cold t;
    if t.fast_slots < t.fast_cap && Backend.admit t.fast ~sector then begin
      Swap_area.set_tier t.swap slot 0;
      t.fast_slots <- t.fast_slots + 1;
      t.last_access.(slot) <- now_us t;
      t.stats.Metrics.Stats.tier_admissions <-
        t.stats.Metrics.Stats.tier_admissions + 1;
      Backend.write t.fast ~queue ~sector ~nsectors:page_sectors
    end
    else begin
      Swap_area.set_tier t.swap slot 1;
      t.stats.Metrics.Stats.tier_rejects <-
        t.stats.Metrics.Stats.tier_rejects + 1;
      Backend.write t.slow ~queue ~sector ~nsectors:page_sectors
    end
  end

(* Copy a just-read slow-tier page into the fast tier (target pages
   only — readahead neighbours stay put until they prove hot). *)
let promote t ~slot =
  if
    Swap_area.is_allocated t.swap slot
    && Swap_area.tier t.swap slot = 1
    && t.fast_slots < t.fast_cap
    && not t.fast_degraded
  then begin
    let sector = Swap_area.sector_of_slot t.swap slot in
    if Backend.admit t.fast ~sector then begin
      Backend.release t.slow ~sector ~nsectors:page_sectors;
      Backend.write t.fast ~queue:0 ~sector ~nsectors:page_sectors;
      Swap_area.set_tier t.swap slot 0;
      t.fast_slots <- t.fast_slots + 1;
      t.last_access.(slot) <- now_us t;
      t.stats.Metrics.Stats.tier_promotions <-
        t.stats.Metrics.Stats.tier_promotions + 1
    end
  end

let swap_in t ~slot ~sector ~nsectors ~queue ~attempt k =
  if t.passthrough then
    Disk.submit t.disk ~sector ~nsectors ~kind:Disk.Read ~queue ~attempt k
  else begin
    let tier = Swap_area.tier t.swap slot in
    t.last_access.(slot) <- now_us t;
    let backend = if tier = 0 then t.fast else t.slow in
    Backend.read backend ~sector ~nsectors ~queue ~attempt
      (fun (reply : Backend.reply) ->
        let us = Sim.Time.to_us reply.service in
        let s = t.stats in
        if tier = 0 then begin
          s.Metrics.Stats.tier_fast_swapins <-
            s.Metrics.Stats.tier_fast_swapins + 1;
          s.Metrics.Stats.tier_fast_swapin_us <-
            s.Metrics.Stats.tier_fast_swapin_us + us
        end
        else begin
          s.Metrics.Stats.tier_slow_swapins <-
            s.Metrics.Stats.tier_slow_swapins + 1;
          s.Metrics.Stats.tier_slow_swapin_us <-
            s.Metrics.Stats.tier_slow_swapin_us + us;
          match reply.result with
          | Ok () -> promote t ~slot
          | Error _ -> ()
        end;
        account_read t ~tier reply;
        k reply)
  end

(* A scrubber verify read: served by the slot's tier like a swap-in,
   but it neither refreshes the slot's last-access time nor promotes —
   scrubbing every slot must not look like the whole area turning hot.
   Errors still count (and feed the fast tier's failover budget). *)
let verify_read t ~slot ~queue ~attempt k =
  let sector = Swap_area.sector_of_slot t.swap slot in
  if t.passthrough then
    Disk.submit t.disk ~sector ~nsectors:page_sectors ~kind:Disk.Read ~queue
      ~attempt k
  else begin
    let tier = Swap_area.tier t.swap slot in
    let backend = if tier = 0 then t.fast else t.slow in
    Backend.read backend ~sector ~nsectors:page_sectors ~queue ~attempt
      (fun (reply : Backend.reply) ->
        account_read t ~tier reply;
        k reply)
  end

let same_tier t a b =
  t.passthrough || Swap_area.tier t.swap a = Swap_area.tier t.swap b

let is_passthrough t = t.passthrough
let fast_degraded t = t.fast_degraded
let fast_slots t = t.fast_slots
let fast_capacity t = t.fast_cap
let fast_used_bytes t = Backend.used_bytes t.fast
let config t = t.cfg
let describe t = pair_to_string t.cfg

type t = {
  mutable disk_ops : int;
  mutable disk_sectors_read : int;
  mutable disk_sectors_written : int;
  mutable disk_seq_reads : int;
  mutable disk_read_batches : int;
  mutable disk_batched_reads : int;
  mutable disk_batch_sectors : int;
  mutable disk_mq_batches : int;
  mutable disk_queue_depth_highwater : int;
  mutable swap_sectors_read : int;
  mutable swap_sectors_written : int;
  mutable host_swapins : int;
  mutable host_swapouts : int;
  mutable silent_swap_writes : int;
  mutable stale_reads : int;
  mutable false_reads : int;
  mutable hypervisor_code_faults : int;
  mutable host_context_faults : int;
  mutable guest_context_faults : int;
  mutable pages_scanned : int;
  mutable guest_swapins : int;
  mutable guest_swapouts : int;
  mutable guest_major_faults : int;
  mutable oom_kills : int;
  mutable mapper_tracked : int;
  mutable mapper_discards : int;
  mutable mapper_refetches : int;
  mutable mapper_invalidations : int;
  mutable preventer_remaps : int;
  mutable preventer_merges : int;
  mutable preventer_timeouts : int;
  mutable preventer_rejects : int;
  mutable balloon_inflated_pages : int;
  mutable balloon_deflated_pages : int;
  mutable faults_injected_media : int;
  mutable faults_injected_transient : int;
  mutable faults_degraded_batches : int;
  mutable fault_retries : int;
  mutable fault_retry_exhausted : int;
  mutable fault_guest_kills : int;
  mutable destage_media_errors : int;
  mutable destage_transient_retries : int;
  mutable swap_full_fallbacks : int;
  mutable emergency_steals : int;
  mutable async_waiter_merges : int;
  mutable async_faults_deferred : int;
  mutable async_inflight_highwater : int;
  mutable engine_events_fired : int;
  mutable engine_cancels_reclaimed : int;
  mutable engine_cascades : int;
  mutable tier_admissions : int;
  mutable tier_rejects : int;
  mutable tier_promotions : int;
  mutable tier_demotions : int;
  mutable tier_writeback_sectors : int;
  mutable tier_fast_swapins : int;
  mutable tier_slow_swapins : int;
  mutable tier_fast_swapin_us : int;
  mutable tier_slow_swapin_us : int;
  mutable scrub_scans : int;
  mutable scrub_verify_reads : int;
  mutable scrub_media_found : int;
  mutable scrub_relocations : int;
  mutable scrub_reloc_failed : int;
  mutable qos_throttled : int;
  mutable qos_throttle_wait_us : int;
  mutable tier_degraded_events : int;
  mutable tier_recovered_events : int;
  mutable tier_failover_routes : int;
  mutable fault_media_reads : int;
  mutable fault_pages_lost : int;
}

let create () =
  {
    disk_ops = 0;
    disk_sectors_read = 0;
    disk_sectors_written = 0;
    disk_seq_reads = 0;
    disk_read_batches = 0;
    disk_batched_reads = 0;
    disk_batch_sectors = 0;
    disk_mq_batches = 0;
    disk_queue_depth_highwater = 0;
    swap_sectors_read = 0;
    swap_sectors_written = 0;
    host_swapins = 0;
    host_swapouts = 0;
    silent_swap_writes = 0;
    stale_reads = 0;
    false_reads = 0;
    hypervisor_code_faults = 0;
    host_context_faults = 0;
    guest_context_faults = 0;
    pages_scanned = 0;
    guest_swapins = 0;
    guest_swapouts = 0;
    guest_major_faults = 0;
    oom_kills = 0;
    mapper_tracked = 0;
    mapper_discards = 0;
    mapper_refetches = 0;
    mapper_invalidations = 0;
    preventer_remaps = 0;
    preventer_merges = 0;
    preventer_timeouts = 0;
    preventer_rejects = 0;
    balloon_inflated_pages = 0;
    balloon_deflated_pages = 0;
    faults_injected_media = 0;
    faults_injected_transient = 0;
    faults_degraded_batches = 0;
    fault_retries = 0;
    fault_retry_exhausted = 0;
    fault_guest_kills = 0;
    destage_media_errors = 0;
    destage_transient_retries = 0;
    swap_full_fallbacks = 0;
    emergency_steals = 0;
    async_waiter_merges = 0;
    async_faults_deferred = 0;
    async_inflight_highwater = 0;
    engine_events_fired = 0;
    engine_cancels_reclaimed = 0;
    engine_cascades = 0;
    tier_admissions = 0;
    tier_rejects = 0;
    tier_promotions = 0;
    tier_demotions = 0;
    tier_writeback_sectors = 0;
    tier_fast_swapins = 0;
    tier_slow_swapins = 0;
    tier_fast_swapin_us = 0;
    tier_slow_swapin_us = 0;
    scrub_scans = 0;
    scrub_verify_reads = 0;
    scrub_media_found = 0;
    scrub_relocations = 0;
    scrub_reloc_failed = 0;
    qos_throttled = 0;
    qos_throttle_wait_us = 0;
    tier_degraded_events = 0;
    tier_recovered_events = 0;
    tier_failover_routes = 0;
    fault_media_reads = 0;
    fault_pages_lost = 0;
  }

let copy t = { t with disk_ops = t.disk_ops }

(* How two readings of one counter merge in [add]: plain counters sum;
   the highwater gauges take the max.  "Deepest queue on any host" is
   the meaningful fleet-wide reading, and max keeps the merge
   order-independent so barrier reductions stay deterministic. *)
type merge = Sum | Max

type field = {
  name : string;
  get : t -> int;
  set : t -> int -> unit;
  merge : merge;
}

let sum name get set = { name; get; set; merge = Sum }
let gauge name get set = { name; get; set; merge = Max }

(* The one counter table, in declaration order: [fields], [diff] and
   [add] are all derived from it. *)
let table =
  [
    sum "disk_ops" (fun t -> t.disk_ops) (fun t v -> t.disk_ops <- v);
    sum "disk_sectors_read" (fun t -> t.disk_sectors_read)
      (fun t v -> t.disk_sectors_read <- v);
    sum "disk_sectors_written" (fun t -> t.disk_sectors_written)
      (fun t v -> t.disk_sectors_written <- v);
    sum "disk_seq_reads" (fun t -> t.disk_seq_reads)
      (fun t v -> t.disk_seq_reads <- v);
    sum "disk_read_batches" (fun t -> t.disk_read_batches)
      (fun t v -> t.disk_read_batches <- v);
    sum "disk_batched_reads" (fun t -> t.disk_batched_reads)
      (fun t v -> t.disk_batched_reads <- v);
    sum "disk_batch_sectors" (fun t -> t.disk_batch_sectors)
      (fun t v -> t.disk_batch_sectors <- v);
    sum "disk_mq_batches" (fun t -> t.disk_mq_batches)
      (fun t v -> t.disk_mq_batches <- v);
    gauge "disk_queue_depth_highwater" (fun t -> t.disk_queue_depth_highwater)
      (fun t v -> t.disk_queue_depth_highwater <- v);
    sum "swap_sectors_read" (fun t -> t.swap_sectors_read)
      (fun t v -> t.swap_sectors_read <- v);
    sum "swap_sectors_written" (fun t -> t.swap_sectors_written)
      (fun t v -> t.swap_sectors_written <- v);
    sum "host_swapins" (fun t -> t.host_swapins)
      (fun t v -> t.host_swapins <- v);
    sum "host_swapouts" (fun t -> t.host_swapouts)
      (fun t v -> t.host_swapouts <- v);
    sum "silent_swap_writes" (fun t -> t.silent_swap_writes)
      (fun t v -> t.silent_swap_writes <- v);
    sum "stale_reads" (fun t -> t.stale_reads) (fun t v -> t.stale_reads <- v);
    sum "false_reads" (fun t -> t.false_reads) (fun t v -> t.false_reads <- v);
    sum "hypervisor_code_faults" (fun t -> t.hypervisor_code_faults)
      (fun t v -> t.hypervisor_code_faults <- v);
    sum "host_context_faults" (fun t -> t.host_context_faults)
      (fun t v -> t.host_context_faults <- v);
    sum "guest_context_faults" (fun t -> t.guest_context_faults)
      (fun t v -> t.guest_context_faults <- v);
    sum "pages_scanned" (fun t -> t.pages_scanned)
      (fun t v -> t.pages_scanned <- v);
    sum "guest_swapins" (fun t -> t.guest_swapins)
      (fun t v -> t.guest_swapins <- v);
    sum "guest_swapouts" (fun t -> t.guest_swapouts)
      (fun t v -> t.guest_swapouts <- v);
    sum "guest_major_faults" (fun t -> t.guest_major_faults)
      (fun t v -> t.guest_major_faults <- v);
    sum "oom_kills" (fun t -> t.oom_kills) (fun t v -> t.oom_kills <- v);
    sum "mapper_tracked" (fun t -> t.mapper_tracked)
      (fun t v -> t.mapper_tracked <- v);
    sum "mapper_discards" (fun t -> t.mapper_discards)
      (fun t v -> t.mapper_discards <- v);
    sum "mapper_refetches" (fun t -> t.mapper_refetches)
      (fun t v -> t.mapper_refetches <- v);
    sum "mapper_invalidations" (fun t -> t.mapper_invalidations)
      (fun t v -> t.mapper_invalidations <- v);
    sum "preventer_remaps" (fun t -> t.preventer_remaps)
      (fun t v -> t.preventer_remaps <- v);
    sum "preventer_merges" (fun t -> t.preventer_merges)
      (fun t v -> t.preventer_merges <- v);
    sum "preventer_timeouts" (fun t -> t.preventer_timeouts)
      (fun t v -> t.preventer_timeouts <- v);
    sum "preventer_rejects" (fun t -> t.preventer_rejects)
      (fun t v -> t.preventer_rejects <- v);
    sum "balloon_inflated_pages" (fun t -> t.balloon_inflated_pages)
      (fun t v -> t.balloon_inflated_pages <- v);
    sum "balloon_deflated_pages" (fun t -> t.balloon_deflated_pages)
      (fun t v -> t.balloon_deflated_pages <- v);
    sum "faults_injected_media" (fun t -> t.faults_injected_media)
      (fun t v -> t.faults_injected_media <- v);
    sum "faults_injected_transient" (fun t -> t.faults_injected_transient)
      (fun t v -> t.faults_injected_transient <- v);
    sum "faults_degraded_batches" (fun t -> t.faults_degraded_batches)
      (fun t v -> t.faults_degraded_batches <- v);
    sum "fault_retries" (fun t -> t.fault_retries)
      (fun t v -> t.fault_retries <- v);
    sum "fault_retry_exhausted" (fun t -> t.fault_retry_exhausted)
      (fun t v -> t.fault_retry_exhausted <- v);
    sum "fault_guest_kills" (fun t -> t.fault_guest_kills)
      (fun t v -> t.fault_guest_kills <- v);
    sum "destage_media_errors" (fun t -> t.destage_media_errors)
      (fun t v -> t.destage_media_errors <- v);
    sum "destage_transient_retries" (fun t -> t.destage_transient_retries)
      (fun t v -> t.destage_transient_retries <- v);
    sum "swap_full_fallbacks" (fun t -> t.swap_full_fallbacks)
      (fun t v -> t.swap_full_fallbacks <- v);
    sum "emergency_steals" (fun t -> t.emergency_steals)
      (fun t v -> t.emergency_steals <- v);
    sum "async_waiter_merges" (fun t -> t.async_waiter_merges)
      (fun t v -> t.async_waiter_merges <- v);
    sum "async_faults_deferred" (fun t -> t.async_faults_deferred)
      (fun t v -> t.async_faults_deferred <- v);
    gauge "async_inflight_highwater" (fun t -> t.async_inflight_highwater)
      (fun t v -> t.async_inflight_highwater <- v);
    sum "engine_events_fired" (fun t -> t.engine_events_fired)
      (fun t v -> t.engine_events_fired <- v);
    sum "engine_cancels_reclaimed" (fun t -> t.engine_cancels_reclaimed)
      (fun t v -> t.engine_cancels_reclaimed <- v);
    sum "engine_cascades" (fun t -> t.engine_cascades)
      (fun t v -> t.engine_cascades <- v);
    sum "tier_admissions" (fun t -> t.tier_admissions)
      (fun t v -> t.tier_admissions <- v);
    sum "tier_rejects" (fun t -> t.tier_rejects)
      (fun t v -> t.tier_rejects <- v);
    sum "tier_promotions" (fun t -> t.tier_promotions)
      (fun t v -> t.tier_promotions <- v);
    sum "tier_demotions" (fun t -> t.tier_demotions)
      (fun t v -> t.tier_demotions <- v);
    sum "tier_writeback_sectors" (fun t -> t.tier_writeback_sectors)
      (fun t v -> t.tier_writeback_sectors <- v);
    sum "tier_fast_swapins" (fun t -> t.tier_fast_swapins)
      (fun t v -> t.tier_fast_swapins <- v);
    sum "tier_slow_swapins" (fun t -> t.tier_slow_swapins)
      (fun t v -> t.tier_slow_swapins <- v);
    sum "tier_fast_swapin_us" (fun t -> t.tier_fast_swapin_us)
      (fun t v -> t.tier_fast_swapin_us <- v);
    sum "tier_slow_swapin_us" (fun t -> t.tier_slow_swapin_us)
      (fun t v -> t.tier_slow_swapin_us <- v);
    sum "scrub_scans" (fun t -> t.scrub_scans) (fun t v -> t.scrub_scans <- v);
    sum "scrub_verify_reads" (fun t -> t.scrub_verify_reads)
      (fun t v -> t.scrub_verify_reads <- v);
    sum "scrub_media_found" (fun t -> t.scrub_media_found)
      (fun t v -> t.scrub_media_found <- v);
    sum "scrub_relocations" (fun t -> t.scrub_relocations)
      (fun t v -> t.scrub_relocations <- v);
    sum "scrub_reloc_failed" (fun t -> t.scrub_reloc_failed)
      (fun t v -> t.scrub_reloc_failed <- v);
    sum "qos_throttled" (fun t -> t.qos_throttled)
      (fun t v -> t.qos_throttled <- v);
    sum "qos_throttle_wait_us" (fun t -> t.qos_throttle_wait_us)
      (fun t v -> t.qos_throttle_wait_us <- v);
    sum "tier_degraded_events" (fun t -> t.tier_degraded_events)
      (fun t v -> t.tier_degraded_events <- v);
    sum "tier_recovered_events" (fun t -> t.tier_recovered_events)
      (fun t v -> t.tier_recovered_events <- v);
    sum "tier_failover_routes" (fun t -> t.tier_failover_routes)
      (fun t v -> t.tier_failover_routes <- v);
    sum "fault_media_reads" (fun t -> t.fault_media_reads)
      (fun t v -> t.fault_media_reads <- v);
    sum "fault_pages_lost" (fun t -> t.fault_pages_lost)
      (fun t v -> t.fault_pages_lost <- v);
  ]

let diff a b =
  let d = create () in
  List.iter (fun f -> f.set d (f.get a - f.get b)) table;
  d

let add dst src =
  List.iter
    (fun f ->
      let a = f.get dst and b = f.get src in
      f.set dst (match f.merge with Sum -> a + b | Max -> max a b))
    table

let fields t = List.map (fun f -> (f.name, f.get t)) table

let set_engine t (tel : Sim.Engine.telemetry) =
  t.engine_events_fired <- tel.events_fired;
  t.engine_cancels_reclaimed <- tel.cancels_reclaimed;
  t.engine_cascades <- tel.cascades

let pp fmt t =
  List.iter
    (fun (name, v) -> if v <> 0 then Format.fprintf fmt "%-26s %d@." name v)
    (fields t)

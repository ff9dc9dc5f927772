(** Simulation-wide event counters.

    One [Stats.t] is shared by every layer of a simulated machine (disk,
    host, guests, VSwapper components).  The fields mirror the quantities
    the paper plots: page faults split by the context they fire in, swap
    sector traffic, the pathology counters (silent writes, stale reads,
    false reads), reclaim scan effort, and VSwapper bookkeeping. *)

type t = {
  (* Physical disk. *)
  mutable disk_ops : int;  (** physical requests issued *)
  mutable disk_sectors_read : int;
  mutable disk_sectors_written : int;
  mutable disk_seq_reads : int;
      (** read batches that started at/just past the head (no seek) *)
  mutable disk_read_batches : int;
      (** coalesced media read accesses (one seek+transfer each) *)
  mutable disk_batched_reads : int;
      (** read requests completed via media batches (>= batches) *)
  mutable disk_batch_sectors : int;
      (** media sectors transferred by read batches (mean = /batches) *)
  mutable disk_mq_batches : int;
      (** media batches served on submission queues other than queue 0 *)
  mutable disk_queue_depth_highwater : int;
      (** gauge: max concurrent in-service batches across all queues *)
  (* Host swap traffic (subset of disk traffic). *)
  mutable swap_sectors_read : int;
  mutable swap_sectors_written : int;
  mutable host_swapins : int;  (** pages faulted in from host swap *)
  mutable host_swapouts : int;  (** pages written out to host swap *)
  (* Pathology counters (Section 3 of the paper). *)
  mutable silent_swap_writes : int;
      (** clean pages written to host swap although identical to image *)
  mutable stale_reads : int;
      (** swap-ins whose content was instantly DMA-overwritten *)
  mutable false_reads : int;
      (** swap-ins whose content was instantly CPU-overwritten *)
  mutable hypervisor_code_faults : int;
      (** faults on the hypervisor's own named pages (false anonymity) *)
  (* Fault counters split by execution context (Figure 9b vs 9c). *)
  mutable host_context_faults : int;
      (** faults while host/QEMU code runs in service of the guest *)
  mutable guest_context_faults : int;
      (** EPT violations while guest code runs *)
  (* Host reclaim effort (Figure 11c). *)
  mutable pages_scanned : int;
  (* Guest-side swapping (ballooning makes the guest do the work). *)
  mutable guest_swapins : int;
  mutable guest_swapouts : int;
  mutable guest_major_faults : int;
  mutable oom_kills : int;
  (* Swap Mapper. *)
  mutable mapper_tracked : int;  (** gauge: currently tracked pages *)
  mutable mapper_discards : int;  (** reclaims that dropped a named page *)
  mutable mapper_refetches : int;  (** faults served from the disk image *)
  mutable mapper_invalidations : int;
  (* False Reads Preventer. *)
  mutable preventer_remaps : int;  (** buffers promoted to pages, read avoided *)
  mutable preventer_merges : int;  (** buffers that needed a read + merge *)
  mutable preventer_timeouts : int;
  mutable preventer_rejects : int;  (** writes not emulated (cap reached) *)
  (* Ballooning. *)
  mutable balloon_inflated_pages : int;
  mutable balloon_deflated_pages : int;
  (* Fault injection and degradation (robustness PR). *)
  mutable faults_injected_media : int;
      (** read requests completed with a permanent media error *)
  mutable faults_injected_transient : int;
      (** read requests completed with a transient error *)
  mutable faults_degraded_batches : int;
      (** disk accesses served at a degraded (multiplied) latency *)
  mutable fault_retries : int;  (** transient-error resubmissions *)
  mutable fault_retry_exhausted : int;
      (** reads abandoned after the retry limit / error budget *)
  mutable fault_guest_kills : int;
      (** guests killed by the host (I/O failure or OOM last resort) *)
  mutable destage_media_errors : int;
      (** buffered sectors lost while destaging — media error, or
          transient retries exhausted (the write ack had already
          succeeded — write-back fault truth) *)
  mutable destage_transient_retries : int;
      (** buffered sectors re-queued after a transient destage error *)
  mutable swap_full_fallbacks : int;
      (** anon evictions skipped because the swap area was full *)
  mutable emergency_steals : int;
      (** frames reclaimed by the emergency (cross-cgroup) scan *)
  (* Async page-fault path (completion-callback fault dedup). *)
  mutable async_waiter_merges : int;
      (** faults that piggybacked on an already in-flight (guest, gpa) *)
  mutable async_faults_deferred : int;
      (** fault starts delayed by the per-guest in-flight bound *)
  mutable async_inflight_highwater : int;
      (** gauge: max concurrent in-flight target faults, machine-wide *)
  (* Event-engine telemetry, copied from [Sim.Engine.telemetry] by
     [set_engine] when the run finishes. *)
  mutable engine_events_fired : int;  (** callbacks the engine invoked *)
  mutable engine_cancels_reclaimed : int;
      (** cancelled event records whose storage was recycled *)
  mutable engine_cascades : int;
      (** timing-wheel slot redistributions *)
  (* Tiered swap backends (all 0 in the default single-disk mode). *)
  mutable tier_admissions : int;  (** swap-outs accepted by the fast tier *)
  mutable tier_rejects : int;
      (** swap-outs the fast tier refused (incompressible page or tier
          full); the page went to the slow tier instead *)
  mutable tier_promotions : int;
      (** slow-tier slots copied into the fast tier on swap-in *)
  mutable tier_demotions : int;
      (** cold fast-tier slots written back to the slow tier *)
  mutable tier_writeback_sectors : int;
      (** sectors moved by demotion writeback *)
  mutable tier_fast_swapins : int;  (** swap-in reads served by the fast tier *)
  mutable tier_slow_swapins : int;  (** swap-in reads served by the slow tier *)
  mutable tier_fast_swapin_us : int;
      (** summed service time of fast-tier swap-ins (mean = /count) *)
  mutable tier_slow_swapin_us : int;
      (** summed service time of slow-tier swap-ins (mean = /count) *)
  (* Degraded-media survival layer (all 0 with scrubber/QoS/failover
     disabled — the default). *)
  mutable scrub_scans : int;  (** full passes the scrubber completed *)
  mutable scrub_verify_reads : int;
      (** low-priority verify reads issued over allocated slots *)
  mutable scrub_media_found : int;
      (** latent media errors the scrubber detected before any guest
          faulted on the slot *)
  mutable scrub_relocations : int;
      (** live slots moved to a healthy sector (content preserved) *)
  mutable scrub_reloc_failed : int;
      (** relocations abandoned (no free slot, raced with a fault, or
          the per-pass repair budget was exhausted) *)
  mutable qos_throttled : int;
      (** swap-in faults parked by a guest's token bucket *)
  mutable qos_throttle_wait_us : int;
      (** summed park time of throttled faults (mean = /throttled) *)
  mutable tier_degraded_events : int;
      (** fast-tier trips of the error budget (Healthy -> Degraded) *)
  mutable tier_recovered_events : int;
      (** successful probes back to Healthy *)
  mutable tier_failover_routes : int;
      (** swap-outs routed to the slow tier because the fast tier was
          degraded (counted on top of [tier_rejects]) *)
  mutable fault_media_reads : int;
      (** guest faults that hit a permanent media error (the scrubber's
          misses; catch rate = scrub_media_found / (found + these)) *)
  mutable fault_pages_lost : int;
      (** swapped-out pages irrecoverable when their guest was killed *)
}

(** Adding a counter takes its field in [t] (here and in [stats.ml]),
    its zero in [create], and one row of the private counter table in
    [stats.ml] that [diff], [add] and [fields] are derived from. *)

val create : unit -> t

(** [copy t] snapshots all counters. *)
val copy : t -> t

(** [diff a b] is the field-wise [a - b]; useful for per-phase deltas. *)
val diff : t -> t -> t

(** [add dst src] accumulates [src] into [dst] in place: counters sum,
    the highwater gauges ([disk_queue_depth_highwater],
    [async_inflight_highwater]) merge with [max].  Both operations are
    commutative and associative, so a reduction over per-host stats is
    independent of merge order. *)
val add : t -> t -> unit

(** [fields t] lists every counter as [(name, value)], in declaration
    order — the stable feed for JSON emitters and fingerprint hashes. *)
val fields : t -> (string * int) list

(** [set_engine t tel] copies the engine's lifetime telemetry into the
    [engine_*] counters of [t]. *)
val set_engine : t -> Sim.Engine.telemetry -> unit

(** [pp] prints every nonzero counter, one per line. *)
val pp : Format.formatter -> t -> unit

(** Mechanical hard-drive model with a write-back cache and batching
    request queues, optionally NVMe-style multi-queue.

    A single-spindle 7200 RPM drive (the paper's testbed has one Seagate
    Constellation 2 TB).  The service time of a media access is

    - a per-request command overhead, plus
    - a seek whose cost grows with the square root of the distance from
      the current head position (zero if the request starts exactly where
      the head rests, i.e. sequential I/O), plus
    - half a rotation of rotational latency whenever a seek occurred, plus
    - transfer time proportional to the sector count.

    Reads land in a sorted pending set.  A C-LOOK elevator picks the next
    request at or past the head position (wrapping to the lowest sector
    when nothing is ahead), and every queued request within
    [forward_skip_sectors] of the growing span end is coalesced into the
    same media access — one seek plus one transfer covering the whole
    span, the way a real NCQ/elevator queue merges adjacent requests.
    The single batch-completion event dispatches every member's
    completion callback in (sector, submission-order) position, so
    requests to the same sector still complete in submission order.  A
    batch of one behaves exactly like an unbatched read.

    Writes are acknowledged almost immediately into a write buffer (the
    drive cache plus host writeback behaves this way); buffered writes
    are merged into contiguous runs and flushed to the media when no read
    is waiting — or eagerly once the buffer exceeds its cap, at which
    point writes do delay reads, which is how heavy swap-out traffic
    hurts swap-in latency.  Destaging flushes from the head position when
    the head sits inside the chosen run (continuing the sweep instead of
    seeking back to the run start).  A read overlapping a buffered write
    is served from the buffer at RAM speed.

    The asymmetry between sequential and random access — about 200x at
    page granularity — is what makes every phenomenon in the paper
    matter, so it is the one thing this model must (and does) get right.

    {2 Multi-queue mode}

    With [num_queues > 1] the device exposes NVMe-style submission
    queues: each read is steered to a queue (the [?queue] argument to
    {!submit}, reduced mod [num_queues]), every queue runs its own
    C-LOOK elevator with a private head cursor, and queues service
    batches in parallel — up to [per_queue_depth] concurrent batches
    per queue — like independent flash channels.  Queue 0 doubles as
    the destage channel for the shared write buffer.  Completion
    ordering stays deterministic: every batch completion is one engine
    event, same-tick events fire in schedule order, and no code path
    depends on hashtable iteration, so a sweep's output is
    byte-identical at any [--jobs] width.  With [num_queues = 1] and
    [per_queue_depth = 1] (the defaults) the device is exactly the
    single-spindle elevator described above. *)

type kind = Read | Write

(** Typed read failure, re-exported from {!Faults.Error}. *)
type error = Faults.Error.t = Media | Transient

(** What a completion callback receives: the request's outcome and the
    duration of the disk access that completed it (the degraded-latency
    multiplier, when injected, is visible here). *)
type reply = { result : (unit, error) Stdlib.result; service : Sim.Time.t }

type config = {
  min_seek_us : int;  (** track-to-track seek *)
  max_seek_us : int;  (** full-stroke seek *)
  full_stroke_sectors : int;  (** distance over which seek saturates *)
  capacity_sectors : int;  (** addressable size; requests past it are rejected *)
  half_rotation_us : int;  (** average rotational delay, 7200 RPM -> 4.17 ms *)
  us_per_sector : float;  (** media transfer rate, 140 MB/s -> 3.66 us *)
  request_overhead_us : int;  (** controller + virtualization-exit cost *)
  write_ack_us : int;  (** latency of a buffered-write acknowledgment *)
  write_buffer_sectors : int;  (** cap before writes push back on reads *)
  max_flush_sectors : int;  (** destaging chunk; bounds read-behind-flush waits *)
  max_batch_sectors : int;  (** cap on a coalesced read batch's media span *)
  idle_flush_delay_us : int;  (** idle time before background destaging starts *)
  num_queues : int;  (** NVMe-style submission queues; 1 = classic elevator *)
  per_queue_depth : int;  (** concurrent in-service batches per queue *)
}

(** A 7200 RPM enterprise drive, roughly the paper's Constellation. *)
val default_config : config

type t

(** [create ~engine ~stats ?faults config] builds a drive.  [faults]
    (default {!Faults.Plan.none}) injects deterministic read errors and
    degraded-latency episodes; write acks are never failed (the
    write-back cache absorbs them, as on a real drive). *)
val create :
  engine:Sim.Engine.t ->
  stats:Metrics.Stats.t ->
  ?faults:Faults.Plan.t ->
  config ->
  t

(** [submit t ~sector ~nsectors ~kind k] enqueues a request and calls [k]
    at its virtual completion time (for writes: when the buffer accepts
    it, not when the media is updated).  Each submitted request's [k] runs
    exactly once, even when the request is coalesced into a batch.
    [queue] (default 0) steers a read to a submission queue (reduced mod
    [num_queues]).  Writes ignore [queue]: they land in the shared
    buffer, queue 0 destages it, and the ack latency is
    queue-independent.
    [attempt] (default 0) is the resubmission count of a retried read; it
    keys the transient-fault hash, so a retry of a transiently failed
    sector can succeed while media errors persist.  Raises [Invalid_arg]
    when [nsectors <= 0], [sector < 0], or the request extends past
    [capacity_sectors]. *)
val submit :
  t ->
  sector:int ->
  nsectors:int ->
  kind:kind ->
  ?queue:int ->
  ?attempt:int ->
  (reply -> unit) ->
  unit

(** [write_buffered t ~sector ~nsectors] is [submit ~kind:Write] without a
    completion: the sectors enter the write buffer and no acknowledgment
    event is scheduled.  For fire-and-forget destaging traffic (swap-out)
    whose ack nobody awaits.  Bounds-checked like {!submit}. *)
val write_buffered : t -> sector:int -> nsectors:int -> unit

(** [queue_depth t] counts waiting reads (all queues), plus buffered
    write runs, plus every batch or flush currently occupying the
    media. *)
val queue_depth : t -> int

(** [num_queues t] is the (clamped, >= 1) submission-queue count. *)
val num_queues : t -> int

(** [config t] is the drive's (clamped) configuration, as stored at
    {!create} time.  Lets composite backends reuse a drive's geometry. *)
val config : t -> config

(** Snapshot of one submission queue, for tests and the scalability
    experiment's per-queue reporting. *)
type queue_stat = {
  q_pending : int;  (** reads waiting in this queue *)
  q_in_service : int;  (** batches currently on the media *)
  q_batches : int;  (** lifetime media batches served here *)
  q_depth_highwater : int;  (** max concurrent in-service batches seen *)
}

val queue_stats : t -> queue_stat array

(** [buffered_write_sectors t] is the current write-buffer occupancy. *)
val buffered_write_sectors : t -> int

(** [service_time t ~sector ~nsectors] is the hypothetical media service
    time of an access starting at the current head position.  Exposed for
    tests and calibration. *)
val service_time : t -> sector:int -> nsectors:int -> Sim.Time.t

(** [set_trace t f] installs a hook called on every media access (read
    batches and flushes, not buffered-write acks) with the pre-access head
    position; a coalesced batch is one access spanning its whole extent.
    For tests and debugging. *)
val set_trace :
  t -> (kind -> head:int -> sector:int -> nsectors:int -> unit) option -> unit

(** [set_faults t plan] replaces the drive's fault plan.  Requests
    submitted after the swap consult the new plan; a drive can thus age
    mid-run (e.g. develop media errors after a workload has populated
    it).  For tests and fault-injection harnesses. *)
val set_faults : t -> Faults.Plan.t -> unit

type kind = Read | Write

type error = Faults.Error.t = Media | Transient

type reply = { result : (unit, error) Stdlib.result; service : Sim.Time.t }

type config = {
  min_seek_us : int;
  max_seek_us : int;
  full_stroke_sectors : int;
  capacity_sectors : int;
  half_rotation_us : int;
  us_per_sector : float;
  request_overhead_us : int;
  write_ack_us : int;
  write_buffer_sectors : int;
  max_flush_sectors : int;
  max_batch_sectors : int;
  idle_flush_delay_us : int;
  num_queues : int;
  per_queue_depth : int;
}

let default_config =
  {
    min_seek_us = 600;
    max_seek_us = 15_000;
    full_stroke_sectors = 3_906_250_000; (* ~2 TB in 512 B sectors *)
    capacity_sectors = 3_906_250_000;
    half_rotation_us = 4_170;
    us_per_sector = 3.66;
    request_overhead_us = 40;
    write_ack_us = 25;
    write_buffer_sectors = 65_536; (* 32 MiB *)
    max_flush_sectors = 8_192; (* 4 MiB destaging chunks *)
    max_batch_sectors = 8_192; (* 4 MiB read batches *)
    idle_flush_delay_us = 3_000;
    num_queues = 1;
    per_queue_depth = 1;
  }

type request = {
  sector : int;
  nsectors : int;
  seq : int;  (* submission order; ties same-sector completions *)
  attempt : int;  (* 0-based resubmission count, keys transient faults *)
  completion : reply -> unit;
}

(* One NVMe-style submission queue with its own service channel: a
   private sorted pending set, C-LOOK cursor (head), and up to
   [per_queue_depth] batches on the media at once.  Queue 0 doubles as
   the destage channel for the shared write buffer.  A single-queue
   device degenerates to the classic one-spindle elevator. *)
type queue = {
  qid : int;
  mutable reads : request list;  (* sorted by (sector, seq) *)
  mutable nreads : int;
  mutable head : int;  (* sector just past this channel's last transfer *)
  mutable in_service : int;  (* batches currently on the media *)
  mutable flushing : bool;  (* a destage chunk is on the media (queue 0 only) *)
  mutable batches : int;  (* lifetime media batches served here *)
  mutable depth_highwater : int;
}

type queue_stat = { q_pending : int; q_in_service : int; q_batches : int; q_depth_highwater : int }

type t = {
  engine : Sim.Engine.t;
  stats : Metrics.Stats.t;
  config : config;
  mutable faults : Faults.Plan.t;
  queues : queue array;
  mutable next_seq : int;
  (* Sorted, disjoint (start, len) runs of dirty sectors. *)
  mutable write_runs : (int * int) list;
  mutable write_buf_sectors : int;
  mutable flush_epoch : int;  (* destage count; keys transient write faults *)
  destage_attempts : (int, int) Hashtbl.t;
      (* sector -> failed destage count; never iterated (determinism) *)
  mutable idle_timer : Sim.Engine.event;
  mutable trace :
    (kind -> head:int -> sector:int -> nsectors:int -> unit) option;
}

let create ~engine ~stats ?(faults = Faults.Plan.none) config =
  let nq = max 1 config.num_queues in
  {
    engine;
    stats;
    config = { config with num_queues = nq;
               per_queue_depth = max 1 config.per_queue_depth };
    faults;
    queues =
      Array.init nq (fun qid ->
          {
            qid;
            reads = [];
            nreads = 0;
            head = 0;
            in_service = 0;
            flushing = false;
            batches = 0;
            depth_highwater = 0;
          });
    next_seq = 0;
    write_runs = [];
    write_buf_sectors = 0;
    flush_epoch = 0;
    destage_attempts = Hashtbl.create 64;
    idle_timer = Sim.Engine.null;
    trace = None;
  }

let seek_time t distance =
  if distance = 0 then 0
  else
    let c = t.config in
    let frac =
      sqrt (float_of_int distance /. float_of_int c.full_stroke_sectors)
    in
    let frac = Float.min 1.0 frac in
    c.min_seek_us
    + int_of_float (frac *. float_of_int (c.max_seek_us - c.min_seek_us))

(* A short forward gap is crossed by letting the platter spin past it
   (cost: the gap's transfer time), not by a seek + rotational wait. *)
let forward_skip_sectors = 4_096 (* ~2 MiB, a couple of tracks *)

(* Give up re-destaging a transiently failing sector after this many
   attempts; the buffered copy is then dropped (counted as lost). *)
let destage_retry_limit = 6

let service_time_from t ~head ~sector ~nsectors =
  let c = t.config in
  let gap = sector - head in
  let positioning =
    if gap = 0 then 0
    else if gap > 0 && gap <= forward_skip_sectors then
      int_of_float (Float.round (float_of_int gap *. c.us_per_sector))
    else seek_time t (abs gap) + c.half_rotation_us
  in
  let transfer =
    int_of_float (Float.round (float_of_int nsectors *. c.us_per_sector))
  in
  Sim.Time.us (c.request_overhead_us + positioning + transfer)

let service_time t ~sector ~nsectors =
  service_time_from t ~head:t.queues.(0).head ~sector ~nsectors

(* Insert a dirty run, merging with overlapping/adjacent runs; the buffer
   occupancy is maintained incrementally (placed minus merged-away). *)
let add_write_run t sector nsectors =
  let s0 = sector and e0 = sector + nsectors in
  let merged = ref 0 in
  let placed = ref 0 in
  let rec insert acc s e = function
    | [] ->
        placed := e - s;
        List.rev ((s, e - s) :: acc)
    | ((rs, rl) as run) :: rest ->
        let re = rs + rl in
        if re < s then insert (run :: acc) s e rest
        else if rs > e then begin
          placed := e - s;
          List.rev_append acc ((s, e - s) :: run :: rest)
        end
        else begin
          merged := !merged + rl;
          insert acc (min s rs) (max e re) rest
        end
  in
  t.write_runs <- insert [] s0 e0 t.write_runs;
  t.write_buf_sectors <- t.write_buf_sectors + !placed - !merged

(* Is [sector, sector+n) fully inside some buffered run? *)
let covered_by_buffer t sector nsectors =
  List.exists
    (fun (rs, rl) -> sector >= rs && sector + nsectors <= rs + rl)
    t.write_runs

(* Take up to [max_flush_sectors] from the buffered run closest to the
   destage head (a one-step elevator with bounded chunks).  When the head
   sits inside the chosen run the chunk starts at the head — continuing
   the current sweep — rather than paying a backward seek to the run
   start; the sectors behind the head stay buffered for a later pass. *)
let pop_flush_chunk t ~head =
  match t.write_runs with
  | [] -> None
  | runs ->
      let best =
        List.fold_left
          (fun acc ((rs, rl) as run) ->
            let re = rs + rl in
            let dist =
              if head >= rs && head <= re then 0
              else min (abs (rs - head)) (abs (re - head))
            in
            match acc with
            | None -> Some (dist, run)
            | Some (bd, _) -> if dist < bd then Some (dist, run) else acc)
          None runs
      in
      (match best with
      | None -> None
      | Some (_, ((rs, rl) as run)) ->
          let re = rs + rl in
          let start = if head > rs && head < re then head else rs in
          let chunk = min (re - start) t.config.max_flush_sectors in
          let left = start - rs in
          let right = re - (start + chunk) in
          t.write_runs <-
            List.concat_map
              (fun r ->
                if r = run then
                  (if left > 0 then [ (rs, left) ] else [])
                  @ (if right > 0 then [ (start + chunk, right) ] else [])
                else [ r ])
              t.write_runs;
          t.write_buf_sectors <- t.write_buf_sectors - chunk;
          Some (start, chunk))

(* ------------------------------------------------------------------ *)
(* Read batching                                                       *)
(* ------------------------------------------------------------------ *)

(* The next unit of read service: either one request served from the
   write buffer at RAM speed, or a batch of media requests coalesced
   into a single seek+transfer. *)
type batch =
  | From_buffer of request
  | Media of { span_start : int; span_end : int; members : request list }

let insert_read q (r : request) =
  let rec go = function
    | [] -> [ r ]
    | (x : request) :: rest as l ->
        if x.sector < r.sector || (x.sector = r.sector && x.seq < r.seq) then
          x :: go rest
        else r :: l
  in
  q.reads <- go q.reads;
  q.nreads <- q.nreads + 1

(* C-LOOK pick on one queue: serve the lowest-sector request at or past
   the queue's head, wrapping to the lowest-sector request overall when
   none is ahead.  Starting from the pick, coalesce every later request
   within [forward_skip_sectors] of the running span end (overlaps
   included) into one media transfer, bounded by [max_batch_sectors].
   Requests covered by the write buffer never join a media batch: they
   are served from RAM when their turn as pick comes. *)
let take_batch t q =
  match q.reads with
  | [] -> None
  | reads ->
      let pick =
        match List.find_opt (fun (r : request) -> r.sector >= q.head) reads with
        | Some r -> r
        | None -> List.hd reads
      in
      if covered_by_buffer t pick.sector pick.nsectors then begin
        q.reads <- List.filter (fun r -> r != pick) q.reads;
        q.nreads <- q.nreads - 1;
        Some (From_buffer pick)
      end
      else begin
        let span_start = pick.sector in
        let span_end = ref (pick.sector + pick.nsectors) in
        let members = ref [ pick ] in
        let nmembers = ref 1 in
        (* [reads] is sorted, so candidates are visited in ascending
           sector order and the span only ever grows forward. *)
        let rec sweep = function
          | [] -> []
          | (r : request) :: rest ->
              if r == pick then sweep rest
              else if
                r.sector >= span_start
                && r.sector <= !span_end + forward_skip_sectors
                && max !span_end (r.sector + r.nsectors) - span_start
                   <= t.config.max_batch_sectors
                && not (covered_by_buffer t r.sector r.nsectors)
              then begin
                span_end := max !span_end (r.sector + r.nsectors);
                members := r :: !members;
                incr nmembers;
                sweep rest
              end
              else r :: sweep rest
        in
        q.reads <- sweep reads;
        q.nreads <- q.nreads - !nmembers;
        Some
          (Media
             {
               span_start;
               span_end = !span_end;
               members = List.rev !members;
             })
      end

let total_in_service t =
  Array.fold_left
    (fun acc q -> acc + q.in_service + if q.flushing then 1 else 0)
    0 t.queues

let total_reads t = Array.fold_left (fun acc q -> acc + q.nreads) 0 t.queues

let account_batch t q ~span_start ~span_end ~nrequests =
  let nsectors = span_end - span_start in
  (match t.trace with
  | Some f -> f Read ~head:q.head ~sector:span_start ~nsectors
  | None -> ());
  t.stats.disk_ops <- t.stats.disk_ops + 1;
  t.stats.disk_sectors_read <- t.stats.disk_sectors_read + nsectors;
  if span_start >= q.head && span_start - q.head <= forward_skip_sectors then
    t.stats.disk_seq_reads <- t.stats.disk_seq_reads + 1;
  t.stats.disk_read_batches <- t.stats.disk_read_batches + 1;
  t.stats.disk_batched_reads <- t.stats.disk_batched_reads + nrequests;
  t.stats.disk_batch_sectors <- t.stats.disk_batch_sectors + nsectors;
  q.batches <- q.batches + 1;
  if q.qid > 0 then t.stats.disk_mq_batches <- t.stats.disk_mq_batches + 1

let account_flush t ~head ~sector nsectors =
  (match t.trace with
  | Some f -> f Write ~head ~sector ~nsectors
  | None -> ());
  t.stats.disk_ops <- t.stats.disk_ops + 1;
  t.stats.disk_sectors_written <- t.stats.disk_sectors_written + nsectors

(* Mark one more batch in service on [q], maintaining the per-queue and
   device-wide depth highwaters. *)
let enter_service t q =
  q.in_service <- q.in_service + 1;
  if q.in_service > q.depth_highwater then q.depth_highwater <- q.in_service;
  let total = total_in_service t in
  if total > t.stats.disk_queue_depth_highwater then
    t.stats.disk_queue_depth_highwater <- total

(* ------------------------------------------------------------------ *)
(* Service loops                                                       *)
(* ------------------------------------------------------------------ *)

(* Each queue runs its own service pump.  Queue 0 additionally owns the
   write buffer: it destages eagerly when the buffer is over capacity
   (writes push back that channel's reads, exactly like the single-queue
   drive), and arms the background idle-flush timer when it goes quiet.
   Completion ordering is deterministic: every batch completion is an
   engine event, same-tick events fire in schedule order, and nothing
   here iterates a hashtable — so output is byte-identical at any
   [--jobs] width. *)
let rec pump t q =
  if q.qid = 0 then pump0 t q else pump_reads t q

and pump_reads t q =
  if q.in_service < t.config.per_queue_depth && q.reads <> [] then
    match take_batch t q with
    | None -> ()
    | Some b ->
        start_batch t q b;
        pump_reads t q

and pump0 t q =
  let over_cap = t.write_buf_sectors > t.config.write_buffer_sectors in
  if over_cap then begin
    if (not q.flushing) && q.in_service = 0 then flush_chunk t q
  end
  else if q.reads = [] then begin
    if t.write_runs <> [] && (not q.flushing) && q.in_service = 0 then
      arm_idle_timer t
  end
  else if (not q.flushing) && q.in_service < t.config.per_queue_depth then
    match take_batch t q with
    | None -> ()
    | Some b ->
        start_batch t q b;
        pump0 t q

and flush_chunk t q =
  match pop_flush_chunk t ~head:q.head with
  | None -> pump0 t q
  | Some (sector, nsectors) ->
      q.flushing <- true;
      (* Each destage draws a fresh epoch; transient write faults hash
         the epoch, so a re-queued sector re-rolls on its next destage
         and the retry loop converges geometrically. *)
      let epoch = t.flush_epoch in
      t.flush_epoch <- epoch + 1;
      account_flush t ~head:q.head ~sector nsectors;
      let dt = service_time_from t ~head:q.head ~sector ~nsectors in
      q.head <- sector + nsectors;
      (Sim.Engine.run_after t.engine dt (fun () ->
             q.flushing <- false;
             inject_destage_faults t ~sector ~nsectors ~epoch;
             pump0 t q))

(* The write ack already succeeded when the data entered the cache, so
   faults discovered while destaging cannot be reported to the
   submitter — exactly the write-back lie this layer models.  Media
   errors drop the buffered copy (counted, lost); transient errors
   re-queue the affected sectors as coalesced runs for a later destage
   pass under a fresh epoch.  A sector whose re-destages keep failing
   transiently is abandoned after [destage_retry_limit] attempts and
   counted as lost alongside the media errors — mirroring how the read
   path exhausts its retry budget, and bounding the work even at a
   transient rate of 1.0. *)
and inject_destage_faults t ~sector ~nsectors ~epoch =
  let c = Faults.Plan.config t.faults in
  if c.Faults.Config.media_rate > 0.0 || c.Faults.Config.transient_rate > 0.0
  then begin
    let run_start = ref (-1) in
    let flush_run e =
      if !run_start >= 0 then begin
        add_write_run t !run_start (e - !run_start);
        run_start := -1
      end
    in
    for s = sector to sector + nsectors - 1 do
      match Faults.Plan.write_error t.faults ~sector:s ~attempt:epoch with
      | Some Faults.Error.Media ->
          Hashtbl.remove t.destage_attempts s;
          t.stats.destage_media_errors <- t.stats.destage_media_errors + 1;
          flush_run s
      | Some Faults.Error.Transient ->
          let tries =
            (match Hashtbl.find_opt t.destage_attempts s with
            | Some n -> n
            | None -> 0)
            + 1
          in
          if tries >= destage_retry_limit then begin
            Hashtbl.remove t.destage_attempts s;
            t.stats.destage_media_errors <- t.stats.destage_media_errors + 1;
            flush_run s
          end
          else begin
            Hashtbl.replace t.destage_attempts s tries;
            t.stats.destage_transient_retries <-
              t.stats.destage_transient_retries + 1;
            if !run_start < 0 then run_start := s
          end
      | None ->
          Hashtbl.remove t.destage_attempts s;
          flush_run s
    done;
    flush_run (sector + nsectors)
  end

and arm_idle_timer t =
  (* Fire-and-check, deliberately not disarmed when service resumes:
     the timer samples the queue 3 ms after the disk last went idle and
     destages if that instant happens to be quiet.  Cancelling it on
     every new read would demand a full idle window — under a steady
     trickle of reads the buffer would never destage at all. *)
  if t.idle_timer = Sim.Engine.null then
    t.idle_timer <-
      (Sim.Engine.schedule_after t.engine
           (Sim.Time.us t.config.idle_flush_delay_us)
           (fun () ->
             t.idle_timer <- Sim.Engine.null;
             (* Destage in the background only if idle right now. *)
             if total_in_service t = 0 && total_reads t = 0
                && t.write_runs <> []
             then flush_chunk t t.queues.(0)))

and start_batch t q = function
  | From_buffer req ->
      enter_service t q;
      (* Served from the write buffer at RAM speed; the content never
         touched the media, so no media/transient fault can fire. *)
      let dt = Sim.Time.us t.config.write_ack_us in
      (Sim.Engine.run_after t.engine dt (fun () ->
             (* The slot is released only after the completion callback:
                reads it submits are gathered by the trailing pump (one
                batching decision per completion event), never serviced
                mid-callback. *)
             req.completion { result = Ok (); service = dt };
             q.in_service <- q.in_service - 1;
             pump t q))
  | Media { span_start; span_end; members } ->
      enter_service t q;
      account_batch t q ~span_start ~span_end
        ~nrequests:(List.length members);
      let dt =
        service_time_from t ~head:q.head ~sector:span_start
          ~nsectors:(span_end - span_start)
      in
      let dt =
        match Faults.Plan.degraded_mult t.faults ~sector:span_start with
        | None -> dt
        | Some m ->
            t.stats.faults_degraded_batches <-
              t.stats.faults_degraded_batches + 1;
            Sim.Time.of_float_us (float_of_int (Sim.Time.to_us dt) *. m)
      in
      q.head <- span_end;
      (Sim.Engine.run_after t.engine dt (fun () ->
             (* One media event completes the whole batch; completions run
                in (sector, submission) order.  The service slot is held
                until every member's callback has run, so resubmissions
                from inside a callback wait for the trailing pump. *)
             List.iter
               (fun (r : request) ->
                 let result =
                   match
                     Faults.Plan.read_error t.faults ~sector:r.sector
                       ~nsectors:r.nsectors ~attempt:r.attempt
                   with
                   | None -> Ok ()
                   | Some Faults.Error.Media ->
                       t.stats.faults_injected_media <-
                         t.stats.faults_injected_media + 1;
                       Error Faults.Error.Media
                   | Some Faults.Error.Transient ->
                       t.stats.faults_injected_transient <-
                         t.stats.faults_injected_transient + 1;
                       Error Faults.Error.Transient
                 in
                 r.completion { result; service = dt })
               members;
             q.in_service <- q.in_service - 1;
             pump t q))

let check_bounds t ~who ~sector ~nsectors =
  if nsectors <= 0 then
    invalid_arg (Printf.sprintf "Disk.%s: nsectors must be positive" who);
  if sector < 0 then
    invalid_arg (Printf.sprintf "Disk.%s: negative sector %d" who sector);
  if sector + nsectors > t.config.capacity_sectors then
    invalid_arg
      (Printf.sprintf "Disk.%s: [%d, %d) past capacity %d" who sector
         (sector + nsectors) t.config.capacity_sectors)

let submit t ~sector ~nsectors ~kind ?(queue = 0) ?(attempt = 0) completion =
  check_bounds t ~who:"submit" ~sector ~nsectors;
  match kind with
  | Read ->
      let q =
        t.queues.(((queue mod t.config.num_queues) + t.config.num_queues)
                  mod t.config.num_queues)
      in
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      insert_read q { sector; nsectors; seq; attempt; completion };
      pump t q
  | Write ->
      add_write_run t sector nsectors;
      let dt = Sim.Time.us t.config.write_ack_us in
      (* Buffered-write acks always succeed: the cache absorbed the data
         (media errors on destage are invisible to the submitter, as on
         a real write-back drive).  The data lands in the shared buffer
         regardless of [queue], and queue 0 destages it. *)
      (Sim.Engine.run_after t.engine dt (fun () ->
             completion { result = Ok (); service = dt }));
      pump0 t t.queues.(0)

(* Buffered write without a completion event: for fire-and-forget
   destaging traffic (e.g. swap-out) whose ack nobody awaits. *)
let write_buffered t ~sector ~nsectors =
  check_bounds t ~who:"write_buffered" ~sector ~nsectors;
  add_write_run t sector nsectors;
  pump0 t t.queues.(0)

let queue_depth t =
  total_reads t + List.length t.write_runs + total_in_service t

let num_queues t = t.config.num_queues
let config t = t.config

let queue_stats t =
  Array.map
    (fun q ->
      {
        q_pending = q.nreads;
        q_in_service = q.in_service;
        q_batches = q.batches;
        q_depth_highwater = q.depth_highwater;
      })
    t.queues

let buffered_write_sectors t = t.write_buf_sectors
let set_trace t f = t.trace <- f
let set_faults t plan = t.faults <- plan

(* Records are slab-allocated and carry their own doubly-linked chain
   links; every slot (and the overflow list) is a circular chain hung on
   a sentinel record, so link/unlink never touches a head pointer and
   cancellation needs no knowledge of which slot holds the record.

   Level membership is decided by aligned windows: an event lives at the
   lowest level whose parent window (the enclosing aligned block of
   64^(l+1) ticks) still contains both the event time and the wheel's
   current tick.  Two invariants follow and are relied on below:

   - a level-0 slot holds exactly one tick's events (slot index is
     [time land 63] within the current 64-tick window), so draining a
     slot is draining a tick;
   - the wheel only ever advances to the minimum queued time, and the
     advance cascades the one chain containing that minimum, so no
     occupied slot is ever skipped past. *)

type 'a record = {
  mutable value : 'a;
  mutable time : int;
  mutable gen : int;  (* bumped on release; low [gen_bits] of a handle *)
  mutable queued : bool;
  mutable prev : 'a record;  (* chain links; self-linked when loose *)
  mutable next : 'a record;
  idx : int;  (* slab index; -1 for sentinels *)
  mutable next_free : int;  (* freelist link; -1 terminates *)
}

let bits = 6
let slots_per_level = 1 lsl bits
let nlevels = 4
let horizon = 1 lsl (bits * nlevels)
let slot_mask = slots_per_level - 1
let gen_bits = 31
let gen_mask = (1 lsl gen_bits) - 1

type 'a t = {
  mutable wtime : int;  (* current tick: no queued event is earlier *)
  levels : 'a record array array;  (* nlevels x slots_per_level sentinels *)
  overflow : 'a record;  (* sentinel for beyond-horizon events *)
  mutable size : int;
  mutable slab : 'a record array;
  mutable free_head : int;
  (* Cached result of the last pure scan, so a [next_time] peek followed
     by [pop] does not search twice.  [scan_level = nlevels] denotes the
     overflow list. *)
  mutable scan_valid : bool;
  mutable scan_time : int;
  mutable scan_level : int;
  mutable scan_slot : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  mutable n_cascades : int;
}

(* An immediate dummy keeps the slab generic and lets released records
   drop their payloads. *)
let dummy : unit -> 'a = fun () -> Obj.magic 0

let sentinel () =
  let rec r =
    {
      value = dummy ();
      time = 0;
      gen = 0;
      queued = false;
      prev = r;
      next = r;
      idx = -1;
      next_free = -1;
    }
  in
  r

let fresh i =
  let rec r =
    {
      value = dummy ();
      time = 0;
      gen = 0;
      queued = false;
      prev = r;
      next = r;
      idx = i;
      next_free = -1;
    }
  in
  r

(* Chain slab entries [lo, hi) onto the freelist in ascending order. *)
let chain slab lo hi tail =
  for i = lo to hi - 1 do
    slab.(i).next_free <- (if i = hi - 1 then tail else i + 1)
  done;
  lo

let create () =
  let n = 64 in
  let slab = Array.init n fresh in
  let free_head = chain slab 0 n (-1) in
  {
    wtime = 0;
    levels =
      Array.init nlevels (fun _ ->
          Array.init slots_per_level (fun _ -> sentinel ()));
    overflow = sentinel ();
    size = 0;
    slab;
    free_head;
    scan_valid = false;
    scan_time = 0;
    scan_level = 0;
    scan_slot = 0;
    n_fired = 0;
    n_cancelled = 0;
    n_cascades = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let fired t = t.n_fired
let cancelled t = t.n_cancelled
let cascades t = t.n_cascades

(* ------------------------------------------------------------------ *)
(* Intrusive chains                                                    *)
(* ------------------------------------------------------------------ *)

let chain_empty s = s.next == s

let link_tail s r =
  let last = s.prev in
  last.next <- r;
  r.prev <- last;
  r.next <- s;
  s.prev <- r;
  r.queued <- true

let unlink r =
  r.prev.next <- r.next;
  r.next.prev <- r.prev;
  r.prev <- r;
  r.next <- r;
  r.queued <- false

(* ------------------------------------------------------------------ *)
(* Slab                                                                *)
(* ------------------------------------------------------------------ *)

let grow t =
  let n = Array.length t.slab in
  let slab = Array.init (2 * n) (fun i -> if i < n then t.slab.(i) else fresh i) in
  t.slab <- slab;
  t.free_head <- chain slab n (2 * n) t.free_head

let alloc t ~time v =
  if t.free_head < 0 then grow t;
  let i = t.free_head in
  let r = t.slab.(i) in
  t.free_head <- r.next_free;
  r.value <- v;
  r.time <- time;
  r

(* Bump the generation (outstanding handles go stale), drop the payload
   so the freelist retains nothing, recycle the slab entry. *)
let release t r =
  r.value <- dummy ();
  r.gen <- (r.gen + 1) land gen_mask;
  r.next_free <- t.free_head;
  t.free_head <- r.idx

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

(* Link [r] at the lowest level whose parent aligned window contains
   both [r.time] and the current tick; beyond the horizon it waits in
   the overflow chain. *)
let place t r =
  let time = r.time and w = t.wtime in
  let rec go l =
    if l >= nlevels then link_tail t.overflow r
    else if time lsr (bits * (l + 1)) = w lsr (bits * (l + 1)) then
      link_tail t.levels.(l).((time lsr (bits * l)) land slot_mask) r
    else go (l + 1)
  in
  go 0

let add t ~time v =
  if time < t.wtime then
    invalid_arg
      (Printf.sprintf "Wheel.add: time %d is before the current tick %d" time
         t.wtime);
  let r = alloc t ~time v in
  place t r;
  t.size <- t.size + 1;
  (* A new event can only move the minimum down. *)
  if t.scan_valid && time < t.scan_time then t.scan_valid <- false;
  (r.idx lsl gen_bits) lor r.gen

let cancel t handle =
  if handle < 0 then false
  else begin
    let i = handle lsr gen_bits in
    if i >= Array.length t.slab then false
    else begin
      let r = t.slab.(i) in
      if r.gen = handle land gen_mask && r.queued then begin
        unlink r;
        release t r;
        t.size <- t.size - 1;
        t.n_cancelled <- t.n_cancelled + 1;
        (* The removed record may have been the cached minimum. *)
        t.scan_valid <- false;
        true
      end
      else false
    end
  end

(* ------------------------------------------------------------------ *)
(* Search and advance                                                  *)
(* ------------------------------------------------------------------ *)

let rec first_occupied row s =
  if s >= slots_per_level then -1
  else if not (chain_empty row.(s)) then s
  else first_occupied row (s + 1)

let min_time_of sent =
  let rec go r best =
    if r == sent then best else go r.next (if r.time < best then r.time else best)
  in
  go sent.next max_int

(* Pure search for the earliest queued event, memoized in the scan
   cache.  Level 0 slots map one-to-one onto the ticks of the current
   64-tick window, so the first occupied slot at or after the cursor is
   the global minimum; each higher level holds strictly later aligned
   windows than everything below it (and the overflow list later still),
   so the first occupied slot per level bounds the search, with only
   that one chain scanned for its earliest record. *)
let scan t =
  let c0 = t.wtime land slot_mask in
  let s0 = first_occupied t.levels.(0) c0 in
  if s0 >= 0 then begin
    t.scan_time <- (t.wtime land lnot slot_mask) + s0;
    t.scan_level <- 0;
    t.scan_slot <- s0;
    t.scan_valid <- true
  end
  else begin
    let rec up l =
      if l >= nlevels then begin
        (* All wheel levels drained ahead: the minimum (if any) is in
           the overflow list, which holds only later top-level windows. *)
        if not (chain_empty t.overflow) then begin
          t.scan_time <- min_time_of t.overflow;
          t.scan_level <- nlevels;
          t.scan_slot <- 0;
          t.scan_valid <- true
        end
      end
      else begin
        (* The cursor slot itself was cascaded when the wheel entered
           its window, so only strictly later slots can be occupied. *)
        let c = (t.wtime lsr (bits * l)) land slot_mask in
        let s = first_occupied t.levels.(l) (c + 1) in
        if s >= 0 then begin
          t.scan_time <- min_time_of t.levels.(l).(s);
          t.scan_level <- l;
          t.scan_slot <- s;
          t.scan_valid <- true
        end
        else up (l + 1)
      end
    in
    up 1
  end

(* Move the wheel to the scanned minimum tick.  When the minimum sits in
   a higher level (or overflow), re-place that one chain against the new
   current tick: records of the due tick land in level 0 — in their
   original FIFO order, because the chain is walked head to tail and
   re-linked at tails — and the rest sink to whatever level now holds
   their window. *)
let advance t =
  let time = t.scan_time and l = t.scan_level in
  t.wtime <- time;
  if l > 0 then begin
    t.n_cascades <- t.n_cascades + 1;
    if l >= nlevels then begin
      (* Overflow: only records whose top-level window the wheel just
         entered move; later windows keep waiting. *)
      let sent = t.overflow in
      let top = bits * nlevels in
      let rec walk r =
        if r != sent then begin
          let nr = r.next in
          if r.time lsr top = time lsr top then begin
            unlink r;
            place t r
          end;
          walk nr
        end
      in
      walk sent.next
    end
    else begin
      let sent = t.levels.(l).(t.scan_slot) in
      let first = sent.next in
      sent.next <- sent;
      sent.prev <- sent;
      let rec walk r =
        if r != sent then begin
          let nr = r.next in
          place t r;
          walk nr
        end
      in
      walk first
    end
  end;
  t.scan_valid <- false

let next_time t =
  if t.size = 0 then -1
  else begin
    if not t.scan_valid then scan t;
    t.scan_time
  end

let pop t =
  if t.size = 0 then invalid_arg "Wheel.pop: empty wheel";
  if not t.scan_valid then scan t;
  advance t;
  let sent = t.levels.(0).(t.wtime land slot_mask) in
  let r = sent.next in
  unlink r;
  let v = r.value in
  release t r;
  t.size <- t.size - 1;
  t.n_fired <- t.n_fired + 1;
  (* The rest of the batch is still chained in the current slot: keep
     the cache pointing at it so draining a tick stays O(1) per pop. *)
  if chain_empty sent then t.scan_valid <- false
  else begin
    t.scan_time <- t.wtime;
    t.scan_level <- 0;
    t.scan_slot <- t.wtime land slot_mask;
    t.scan_valid <- true
  end;
  v

(* Unit and property tests for the simulation substrate: virtual time,
   the deterministic PRNG, and the engine with its timing wheel. *)

let check = Alcotest.check
let qcheck = Test_util.qcheck

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let time_units () =
  check Alcotest.int "ms" 5_000 (Sim.Time.ms 5);
  check Alcotest.int "sec" 3_000_000 (Sim.Time.sec 3);
  check Alcotest.int "us" 7 (Sim.Time.us 7);
  check (Alcotest.float 1e-9) "to_sec" 1.5 (Sim.Time.to_sec_float (Sim.Time.ms 1_500));
  check Alcotest.int "add" 11 (Sim.Time.add 5 6);
  check Alcotest.int "sub" 4 (Sim.Time.sub 10 6);
  check Alcotest.int "round" 3 (Sim.Time.of_float_us 2.6)

let time_pp () =
  check Alcotest.string "seconds" "2.5s" (Sim.Time.to_string (Sim.Time.us 2_500_000));
  check Alcotest.string "millis" "1.5ms" (Sim.Time.to_string (Sim.Time.us 1_500));
  check Alcotest.string "micros" "17us" (Sim.Time.to_string (Sim.Time.us 17))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Sim.Rng.of_int 42 and b = Sim.Rng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1_000_000)
      (Sim.Rng.int b 1_000_000)
  done

let rng_split_independent () =
  let a = Sim.Rng.of_int 42 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng: int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.of_int seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"rng: shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Sim.Rng.of_int seed in
      let arr = Array.of_list l in
      Sim.Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let rng_int_in_bounds =
  QCheck.Test.make ~name:"rng: int_in inclusive bounds" ~count:300
    QCheck.(triple small_int (int_range 0 100) (int_range 0 100))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Sim.Rng.of_int seed in
      let v = Sim.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let rng_exponential_positive () =
  let rng = Sim.Rng.of_int 3 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "non-negative" true
      (Sim.Rng.exponential rng ~mean:5.0 >= 0.0)
  done

let rng_float_bounds =
  QCheck.Test.make ~name:"rng: float stays within bounds" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Sim.Rng.of_int seed in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 30) (fun () -> log := 30 :: !log));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> log := 10 :: !log));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> log := 20 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires in order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Sim.Engine.now e)

let engine_cascade () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick n () =
    if n > 0 then begin
      incr count;
      ignore (Sim.Engine.schedule_after e (Sim.Time.us 5) (tick (n - 1)))
    end
  in
  ignore (Sim.Engine.schedule_after e (Sim.Time.us 5) (tick 10));
  Sim.Engine.run e;
  check Alcotest.int "all ticks" 10 !count;
  check Alcotest.int "clock" 55 (Sim.Engine.now e)

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let ev = Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := true) in
  Sim.Engine.cancel e ev;
  check Alcotest.int "pending drops" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  (* double-cancel is a no-op *)
  Sim.Engine.cancel e ev

let engine_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: 10 is in the past (now=50)")
    (fun () -> ignore (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> ())))

let engine_run_until () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun t -> ignore (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () -> log := t :: !log)))
    [ 10; 20; 30; 40 ];
  let remaining = Sim.Engine.run_until e (Sim.Time.us 25) in
  Alcotest.(check bool) "events remain" true remaining;
  Alcotest.(check (list int)) "only early" [ 10; 20 ] (List.rev !log);
  let remaining = Sim.Engine.run_until e (Sim.Time.us 100) in
  Alcotest.(check bool) "drained" false remaining;
  Alcotest.(check (list int)) "all" [ 10; 20; 30; 40 ] (List.rev !log)

(* Regression: an event scheduled exactly at the limit must fire during
   [run_until limit] (the cutoff is events *after* the limit), and the
   comparison must go through [Time.compare], not raw ints. *)
let engine_run_until_at_limit () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore
        (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () ->
             fired := t :: !fired)))
    [ 10; 25; 40 ];
  let remaining = Sim.Engine.run_until e (Sim.Time.us 25) in
  Alcotest.(check bool) "later event remains" true remaining;
  Alcotest.(check (list int)) "event at limit fires" [ 10; 25 ]
    (List.rev !fired);
  check Alcotest.int "clock advanced to limit event" 25 (Sim.Engine.now e);
  (* A limit landing exactly on the final event drains the queue. *)
  let remaining = Sim.Engine.run_until e (Sim.Time.us 40) in
  Alcotest.(check bool) "drained at exact limit" false remaining;
  Alcotest.(check (list int)) "all fired" [ 10; 25; 40 ] (List.rev !fired)

(* run_at/run_after events recycle through a freelist; interleave them
   with cancellable schedule_at handles to check neither corrupts the
   other. *)
let engine_recycled_events () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for round = 0 to 2 do
    let base = Sim.Engine.now e in
    for i = 1 to 50 do
      Sim.Engine.run_at e
        (Sim.Time.add base (Sim.Time.us i))
        (fun () -> log := ((round * 100) + i) :: !log)
    done;
    let h =
      Sim.Engine.schedule_at e
        (Sim.Time.add base (Sim.Time.us 10))
        (fun () -> log := (-1) :: !log)
    in
    Sim.Engine.cancel e h;
    Sim.Engine.run e
  done;
  let expected =
    List.concat_map
      (fun round -> List.init 50 (fun i -> (round * 100) + i + 1))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "recycled events all fire in order" expected
    (List.rev !log);
  Alcotest.(check bool) "cancelled handle never fired" false
    (List.mem (-1) !log)

(* Handles are generation-counted: cancelling after the event fired is
   a no-op (it used to corrupt the pending count), and a stale handle
   never cancels the unrelated event that recycled its slot. *)
let engine_cancel_after_fire () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let h1 = Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := 1 :: !fired) in
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> fired := 2 :: !fired));
  Alcotest.(check bool) "stepped" true (Sim.Engine.step e);
  Sim.Engine.cancel e h1;
  check Alcotest.int "pending unchanged by stale cancel" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e Sim.Engine.null;
  check Alcotest.int "null cancel is a no-op" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "both fired" [ 1; 2 ] (List.rev !fired)

let engine_stale_handle_spares_slot_reuser () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let h1 = Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := 1 :: !fired) in
  Sim.Engine.run e;
  (* The new event recycles h1's slot with a bumped generation. *)
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> fired := 2 :: !fired));
  Sim.Engine.cancel e h1;
  check Alcotest.int "reused slot survives stale cancel" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "both fired" [ 1; 2 ] (List.rev !fired)

(* A cancelled record never fires on the [step] drain path, and its
   slot recycles cleanly for the next round. *)
let engine_cancelled_reclaimed_by_step () =
  let e = Sim.Engine.create () in
  let leaked = ref false in
  for _round = 1 to 3 do
    let h =
      Sim.Engine.schedule_after e (Sim.Time.us 5) (fun () -> leaked := true)
    in
    ignore (Sim.Engine.schedule_after e (Sim.Time.us 7) (fun () -> ()));
    Sim.Engine.cancel e h;
    while Sim.Engine.step e do
      ()
    done
  done;
  Alcotest.(check bool) "cancelled never fired" false !leaked;
  check Alcotest.int "queue empty" 0 (Sim.Engine.pending e)

let engine_monotone_time =
  QCheck.Test.make ~name:"engine(wheel): callbacks fire in non-decreasing time"
    ~count:200
    QCheck.(list (int_range 0 10_000))
    (fun times ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () ->
                 fired := Sim.Engine.now e :: !fired)))
        times;
      Sim.Engine.run e;
      let seq = List.rev !fired in
      List.length seq = List.length times
      && seq = List.sort compare seq)

exception Boom

(* A callback raising out of [step]/[run_until] must leave the engine
   consistent: the fired event's record is recycled before the callback
   runs, so nothing leaks, the clock stays where the raising event fired,
   and the remaining events still run afterwards. *)
let engine_exception_safety () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> fired := 1 :: !fired));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> raise Boom));
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 30) (fun () -> fired := 3 :: !fired));
  Alcotest.check_raises "raises through run_until" Boom (fun () ->
      ignore (Sim.Engine.run_until e (Sim.Time.us 100)));
  Alcotest.(check int) "clock at the raising event" 20
    (Sim.Time.to_us (Sim.Engine.now e));
  Alcotest.(check int) "raising record reclaimed, survivor pending" 1
    (Sim.Engine.pending e);
  (* The engine keeps working: the survivor and fresh events (reusing
     the recycled slots) all fire. *)
  for i = 4 to 40 do
    ignore
      (Sim.Engine.schedule_at e
         (Sim.Time.us (10 * i))
         (fun () -> fired := i :: !fired))
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "all survivors fired" 39 (List.length !fired);
  Alcotest.(check int) "none left" 0 (Sim.Engine.pending e)

let engine_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun v -> ignore (Sim.Engine.schedule_at e (Sim.Time.us 10) (fun () -> log := v :: !log)))
    [ 1; 2; 3 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3 ] (List.rev !log)

(* An event scheduled for the current instant from inside a callback
   joins the tail of that instant: it fires after the events already
   queued at the same time and before any later time — the wheel drains
   the refilled current slot as a later batch at the same tick. *)
let engine_same_tick_reentry () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () ->
         log := 0 :: !log;
         ignore
           (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () ->
                log := 9 :: !log))));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 50) (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 51) (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "reentry after the batch, before the next tick"
    [ 0; 1; 9; 2 ] (List.rev !log)

let engine_telemetry () =
  let e = Sim.Engine.create () in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule_at e (Sim.Time.us (i * 10)) (fun () -> ()))
  done;
  let h = Sim.Engine.schedule_at e (Sim.Time.us 500) (fun () -> ()) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  let tel = Sim.Engine.telemetry e in
  Alcotest.(check int) "fired = callbacks invoked" 10 tel.Sim.Engine.events_fired;
  Alcotest.(check int) "cancelled record reclaimed exactly once" 1
    tel.Sim.Engine.cancels_reclaimed

(* ------------------------------------------------------------------ *)
(* Wheel-specific edge cases                                           *)
(* ------------------------------------------------------------------ *)

(* 64 = the first time resolved by wheel level 1, 4096 by level 2,
   262144 by level 3.  Aligned-window placement and cascading must fire
   boundary±1 times in exact order with exact clocks. *)
let wheel_level_boundary () =
  let e = Sim.Engine.create () in
  let times = [ 65; 4096; 63; 262145; 4095; 64; 262143; 4097; 262144; 1; 0 ] in
  let log = ref [] in
  List.iter
    (fun t ->
      ignore
        (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () ->
             log := Sim.Time.to_us (Sim.Engine.now e) :: !log)))
    times;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "boundary times fire in order"
    (List.sort compare times) (List.rev !log)

(* One event per wheel level plus two same-time events beyond the 2^24 us
   horizon (overflow list), scheduled out of order: everything must fire
   in time order with FIFO ties, and the far events must have cascaded
   down through the levels on the way. *)
let wheel_deep_cascade () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let add t v =
    ignore (Sim.Engine.schedule_at e (Sim.Time.us t) (fun () -> log := v :: !log))
  in
  add 20_000_000 4;
  add 20_000_000 5;
  add 300_000 3;
  add 10 0;
  add 5_000 2;
  add 100 1;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "levels + overflow in order, FIFO at ties"
    [ 0; 1; 2; 3; 4; 5 ] (List.rev !log);
  Alcotest.(check int) "clock at the overflow events" 20_000_000
    (Sim.Time.to_us (Sim.Engine.now e));
  let tel = Sim.Engine.telemetry e in
  Alcotest.(check bool) "far events cascaded down the levels" true
    (tel.Sim.Engine.cascades > 0)

(* Cancelling from inside a callback while a cascaded batch is draining:
   a later same-tick event (already relocated into the current level-0
   slot), a cascaded-but-not-yet-due event one tick over, and an event
   still parked at level 1 must all unlink cleanly, each recycled at
   once. *)
let wheel_cancel_during_cascade () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  (* Tick 100 lives on level 1 from wheel time 0, so reaching it forces a
     cascade; the handles below are all in flight mid-drain when event 0
     cancels them. *)
  let hc = ref Sim.Engine.null
  and hd = ref Sim.Engine.null
  and hf = ref Sim.Engine.null in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 100) (fun () ->
         log := 0 :: !log;
         Sim.Engine.cancel e !hc;
         Sim.Engine.cancel e !hd;
         Sim.Engine.cancel e !hf));
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 100) (fun () -> log := 1 :: !log));
  (* same tick, behind the canceller in the batch *)
  hc := Sim.Engine.schedule_at e (Sim.Time.us 100) (fun () -> log := 2 :: !log);
  (* same level-1 window, so cascaded to level 0 but one tick later *)
  hd := Sim.Engine.schedule_at e (Sim.Time.us 101) (fun () -> log := 3 :: !log);
  (* different level-1 slot: still parked above when cancelled *)
  hf := Sim.Engine.schedule_at e (Sim.Time.us 160) (fun () -> log := 4 :: !log);
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 170) (fun () -> log := 5 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "cancelled events skipped mid-batch" [ 0; 1; 5 ]
    (List.rev !log);
  Alcotest.(check int) "each cancel recycled its record" 3
    (Sim.Engine.telemetry e).Sim.Engine.cancels_reclaimed;
  Alcotest.(check int) "queue empty" 0 (Sim.Engine.pending e)

(* Peeking must not advance the wheel: after [run_until] returns with a
   far-future event still queued, a fresh event far earlier than it (but
   after the engine clock) must be accepted and fire first. *)
let wheel_peek_does_not_advance () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule_at e (Sim.Time.us 1_000_000) (fun () ->
         log := 2 :: !log));
  let remaining = Sim.Engine.run_until e (Sim.Time.us 10) in
  Alcotest.(check bool) "far event still queued" true remaining;
  ignore (Sim.Engine.schedule_at e (Sim.Time.us 20) (fun () -> log := 1 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "late earlier insert fires first" [ 1; 2 ]
    (List.rev !log)

(* Reference model for the differential: pending events in a stdlib Map
   keyed by (time, schedule sequence number), so the map's order is the
   firing order — earliest time first, FIFO among equal times.  The key
   is the handle: a fired or cancelled event's key has left the map, so
   cancelling it again is a no-op.  The clock moves only when an event
   fires, and scheduling in the past raises. *)
module Ref_engine = struct
  module Q = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = {
    mutable now : int;
    mutable seq : int;
    mutable queue : (unit -> unit) Q.t;
  }

  let create () = { now = 0; seq = 0; queue = Q.empty }

  let schedule_at t time fn =
    if time < t.now then invalid_arg "Ref_engine.schedule_at: in the past";
    let key = (time, t.seq) in
    t.seq <- t.seq + 1;
    t.queue <- Q.add key fn t.queue;
    key

  let cancel t key = t.queue <- Q.remove key t.queue
  let pending t = Q.cardinal t.queue

  (* Fire the events due at or before [limit]; [true] if any remain. *)
  let rec run_until t limit =
    match Q.min_binding_opt t.queue with
    | None -> false
    | Some ((time, _), _) when time > limit -> true
    | Some (((time, _) as key), fn) ->
        t.queue <- Q.remove key t.queue;
        t.now <- time;
        fn ();
        run_until t limit
end

(* The operations a trace drives, over either event queue; ['h] is the
   queue's handle type.  Times are in microseconds. *)
type 'h queue_ops = {
  now : unit -> int;
  schedule_after : int -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  run_until : int -> bool;
  pending : unit -> int;
}

let engine_ops () =
  let e = Sim.Engine.create () in
  {
    now = (fun () -> Sim.Time.to_us (Sim.Engine.now e));
    schedule_after =
      (fun d fn -> Sim.Engine.schedule_after e (Sim.Time.us d) fn);
    cancel = Sim.Engine.cancel e;
    run_until = (fun limit -> Sim.Engine.run_until e (Sim.Time.us limit));
    pending = (fun () -> Sim.Engine.pending e);
  }

let ref_ops () =
  let m = Ref_engine.create () in
  {
    now = (fun () -> m.now);
    schedule_after = (fun d fn -> Ref_engine.schedule_at m (m.now + d) fn);
    cancel = Ref_engine.cancel m;
    run_until = Ref_engine.run_until m;
    pending = (fun () -> Ref_engine.pending m);
  }

(* The differential harness: random schedule / cancel / run_until traces
   replayed against the engine and the reference model must produce the
   same observable outcome — firing order as (id, time) pairs, final
   clock, and final pending count.  Short schedules ([0, 4]) make
   same-time ties common; far schedules (x10000) push events past the
   wheel horizon so the overflow list is exercised too.  The
   [Then_*] events act from inside their own callback when they fire:
   schedule a follow-up [d] from now ([d = 0] re-enters the current
   tick), or cancel the k-th most recent handle, which may already have
   fired (a stale handle). *)
type trace_op =
  | Sched of int
  | Sched_far of int
  | Cancel_nth of int
  | Run_for of int
  | Then_sched of int * int
  | Then_cancel of int * int

let replay (mk : unit -> 'h queue_ops) ops =
  let q = mk () in
  let fired = ref [] and handles = ref [] and next_id = ref 0 in
  let cancel_nth k = Option.iter q.cancel (List.nth_opt !handles k) in
  let sched d on_fire =
    let id = !next_id in
    incr next_id;
    let h =
      q.schedule_after d (fun () ->
          fired := (id, q.now ()) :: !fired;
          on_fire ())
    in
    handles := h :: !handles
  in
  List.iter
    (function
      | Sched d -> sched d ignore
      | Sched_far d -> sched (d * 10_000) ignore
      | Cancel_nth k -> cancel_nth k
      | Run_for d -> ignore (q.run_until (q.now () + d) : bool)
      | Then_sched (d, d') -> sched d (fun () -> sched d' ignore)
      | Then_cancel (d, k) -> sched d (fun () -> cancel_nth k))
    ops;
  ignore (q.run_until max_int : bool);
  (List.rev !fired, q.now (), q.pending ())

let engine_differential =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun d -> Sched d) (int_range 0 2_000));
          (2, map (fun d -> Sched d) (int_range 0 4));
          (1, map (fun d -> Sched_far d) (int_range 0 4_000));
          (2, map (fun k -> Cancel_nth k) (int_range 0 30));
          (2, map (fun d -> Run_for d) (int_range 0 3_000));
          ( 2,
            map2
              (fun d d' -> Then_sched (d, d'))
              (int_range 0 2_000)
              (frequency [ (1, return 0); (2, int_range 0 300) ]) );
          ( 2,
            map2
              (fun d k -> Then_cancel (d, k))
              (int_range 0 2_000) (int_range 0 30) );
        ])
  in
  let print_op = function
    | Sched d -> Printf.sprintf "Sched %d" d
    | Sched_far d -> Printf.sprintf "Sched_far %d" d
    | Cancel_nth k -> Printf.sprintf "Cancel_nth %d" k
    | Run_for d -> Printf.sprintf "Run_for %d" d
    | Then_sched (d, d') -> Printf.sprintf "Then_sched (%d, %d)" d d'
    | Then_cancel (d, k) -> Printf.sprintf "Then_cancel (%d, %d)" d k
  in
  let arb =
    QCheck.make
      ~print:(QCheck.Print.list print_op)
      QCheck.Gen.(list_size (int_range 0 60) op_gen)
  in
  QCheck.Test.make ~name:"engine: wheel = reference model on random traces"
    ~count:300 arb (fun ops -> replay engine_ops ops = replay ref_ops ops)

let tests =
    [
      ( "sim:time",
        [
          Alcotest.test_case "unit conversions" `Quick time_units;
          Alcotest.test_case "pretty printing" `Quick time_pp;
        ] );
      ( "sim:rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split independence" `Quick rng_split_independent;
          Alcotest.test_case "exponential positive" `Quick
            rng_exponential_positive;
          qcheck rng_bounds;
          qcheck rng_int_in_bounds;
          qcheck rng_shuffle_permutes;
          qcheck rng_float_bounds;
        ] );
      ( "sim:engine(wheel)",
        [
          Alcotest.test_case "ordering" `Quick engine_ordering;
          Alcotest.test_case "cascading events" `Quick engine_cascade;
          Alcotest.test_case "cancellation" `Quick engine_cancel;
          Alcotest.test_case "past rejected" `Quick engine_past_rejected;
          Alcotest.test_case "run_until" `Quick engine_run_until;
          Alcotest.test_case "run_until: event exactly at limit" `Quick
            engine_run_until_at_limit;
          Alcotest.test_case "freelist event recycling" `Quick
            engine_recycled_events;
          Alcotest.test_case "cancel after fire is a no-op" `Quick
            engine_cancel_after_fire;
          Alcotest.test_case "stale handle spares slot reuser" `Quick
            engine_stale_handle_spares_slot_reuser;
          Alcotest.test_case "step reclaims cancelled records" `Quick
            engine_cancelled_reclaimed_by_step;
          Alcotest.test_case "same-time FIFO" `Quick engine_same_time_fifo;
          Alcotest.test_case "same-tick reentry ordering" `Quick
            engine_same_tick_reentry;
          Alcotest.test_case "exception safety" `Quick engine_exception_safety;
          Alcotest.test_case "telemetry counters" `Quick engine_telemetry;
          qcheck engine_monotone_time;
        ] );
      ( "sim:wheel",
        [
          Alcotest.test_case "level-boundary scheduling" `Quick
            wheel_level_boundary;
          Alcotest.test_case "deep cascade + overflow" `Quick
            wheel_deep_cascade;
          Alcotest.test_case "cancel during cascade" `Quick
            wheel_cancel_during_cascade;
          Alcotest.test_case "peek does not advance the wheel" `Quick
            wheel_peek_does_not_advance;
          qcheck engine_differential;
        ] );
    ]

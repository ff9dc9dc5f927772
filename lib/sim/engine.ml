(* The engine is a virtual clock over one hierarchical timing wheel:
   O(1) schedule and cancel with true removal, whole-tick batch dispatch.
   Event records live in the wheel's freelist slab; a handle is the
   wheel's packed (slot index, generation) immediate, so stale handles
   (fired or cancelled events) are detected and ignored instead of
   corrupting a reused record. *)

type backend = Wheel

let backend_name Wheel = "wheel"
let default_backend () = Wheel

type event = int

let null = -1

type t = { mutable clock : Time.t; wheel : (unit -> unit) Wheel.t }

let create () = { clock = Time.zero; wheel = Wheel.create () }
let now t = t.clock

let check_not_past t time =
  if Time.compare time t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now=%d)"
         (Time.to_us time) (Time.to_us t.clock))

let schedule_at t time fn =
  check_not_past t time;
  Wheel.add t.wheel ~time:(Time.to_us time) fn

let schedule_after t delay fn = schedule_at t (Time.add t.clock delay) fn
let run_at t time fn = ignore (schedule_at t time fn : event)
let run_after t delay fn = run_at t (Time.add t.clock delay) fn
let cancel t ev = ignore (Wheel.cancel t.wheel ev : bool)
let pending t = Wheel.length t.wheel

let step t =
  let nt = Wheel.next_time t.wheel in
  if nt < 0 then false
  else begin
    (* [pop] recycles the record before handing back the callback, so a
       handle to the fired event is stale by the time it runs. *)
    let fn = Wheel.pop t.wheel in
    t.clock <- Time.us nt;
    fn ();
    true
  end

let run t = while step t do () done

(* The wheel's [next_time] is pure and cached, so the next-event time is
   read once per iteration; the first pop of a tick pays the slot search
   and the rest of the batch drains at O(1) per event. *)
let rec run_until t limit =
  let nt = Wheel.next_time t.wheel in
  if nt < 0 then false
  else if Time.compare (Time.us nt) limit > 0 then true
  else begin
    let fn = Wheel.pop t.wheel in
    t.clock <- Time.us nt;
    fn ();
    run_until t limit
  end

type telemetry = { events_fired : int; cancels_reclaimed : int; cascades : int }

let telemetry t =
  {
    events_fired = Wheel.fired t.wheel;
    cancels_reclaimed = Wheel.cancelled t.wheel;
    cascades = Wheel.cascades t.wheel;
  }

(* A swap backend as a record of closures: the Disk module stays the
   canonical implementation, and the compressed-RAM and remote-memory
   tiers model only what distinguishes them — their latency source.
   Every model keeps its clock as an integer microsecond cursor in
   virtual time, so behaviour is a pure function of the event order and
   sweeps stay byte-identical at any [--jobs] width. *)

type reply = Disk.reply = {
  result : (unit, Faults.Error.t) Stdlib.result;
  service : Sim.Time.t;
}

type t = {
  name : string;
  capacity_sectors : int;
  read :
    sector:int ->
    nsectors:int ->
    queue:int ->
    attempt:int ->
    (reply -> unit) ->
    unit;
  write : queue:int -> sector:int -> nsectors:int -> unit;
  admit : sector:int -> bool;
  release : sector:int -> nsectors:int -> unit;
  used_bytes : unit -> int;
}

let name t = t.name
let capacity_sectors t = t.capacity_sectors
let read t = t.read
let write t = t.write
let admit t ~sector = t.admit ~sector
let release t = t.release
let used_bytes t = t.used_bytes ()

(* ------------------------------------------------------------------ *)
(* Disk passthrough                                                    *)
(* ------------------------------------------------------------------ *)

let of_disk disk =
  {
    name = "disk";
    capacity_sectors = (Disk.config disk).Disk.capacity_sectors;
    read =
      (fun ~sector ~nsectors ~queue ~attempt k ->
        Disk.submit disk ~sector ~nsectors ~kind:Disk.Read ~queue ~attempt k);
    write =
      (fun ~queue:_ ~sector ~nsectors ->
        Disk.write_buffered disk ~sector ~nsectors);
    admit = (fun ~sector:_ -> true);
    release = (fun ~sector:_ ~nsectors:_ -> ());
    used_bytes = (fun () -> 0);
  }

(* ------------------------------------------------------------------ *)
(* Compressed-RAM tier (zswap-style)                                   *)
(* ------------------------------------------------------------------ *)

(* Each page has an intrinsic compressed/uncompressed ratio drawn from
   the same pure-hash family as the fault plans: a deterministic
   function of (seed, page index), independent of request order.  The
   range [0.15, 1.25) covers zero pages through already-compressed
   data; pages whose ratio exceeds [admit_ratio] are rejected as
   incompressible, like zswap refusing pages that compress badly. *)
let czram_ratio key page = 0.15 +. (1.10 *. Faults.Plan.hash01 key page 0)

let czram ?(faults = Faults.Plan.none) ~engine ~seed ~admit_ratio ~pool_bytes
    ~compress_us ~decompress_us () =
  let key = Sim.Rng.next_int64 (Sim.Rng.of_int (0x5a + seed)) in
  let used = ref 0 in
  (* The (de)compressor is one CPU: requests serialize on this cursor
     rather than seeking — the tier's entire latency model. *)
  let busy_until_us = ref 0 in
  let page_of sector = sector / Geom.sectors_per_page in
  let page_bytes sector =
    int_of_float
      (czram_ratio key (page_of sector) *. float_of_int Geom.page_bytes)
  in
  let npages nsectors =
    (nsectors + Geom.sectors_per_page - 1) / Geom.sectors_per_page
  in
  (* Occupy the compressor for [cost] microseconds starting now (or when
     it frees up); returns the absolute finish time in microseconds. *)
  let occupy_cpu cost =
    let now = Sim.Time.to_us (Sim.Engine.now engine) in
    let start = max now !busy_until_us in
    busy_until_us := start + cost;
    !busy_until_us
  in
  {
    name = "czram";
    capacity_sectors = max_int;
    read =
      (fun ~sector ~nsectors ~queue:_ ~attempt:_ k ->
        let now = Sim.Time.to_us (Sim.Engine.now engine) in
        let finish = occupy_cpu (decompress_us * npages nsectors) in
        let dt = Sim.Time.us (finish - now) in
        (* Pool corruption: a Media error keyed on the page alone, so it
           persists across attempts.  The decompressor CPU is charged
           either way — the failure is discovered at the end of the
           decompress, not before it. *)
        let result =
          match Faults.Plan.czram_error faults ~page:(page_of sector) with
          | Some e -> Error e
          | None -> Ok ()
        in
        Sim.Engine.run_after engine dt (fun () -> k { result; service = dt }));
    write =
      (fun ~queue:_ ~sector ~nsectors ->
        (* Fire-and-forget like a buffered disk write; compression still
           consumes the CPU, delaying concurrent decompressions. *)
        ignore (occupy_cpu (compress_us * npages nsectors));
        used := !used + page_bytes sector);
    admit =
      (fun ~sector ->
        czram_ratio key (page_of sector) <= admit_ratio
        && !used + page_bytes sector <= pool_bytes);
    release =
      (fun ~sector ~nsectors:_ ->
        (* The compressed size is a pure hash of the page, so release
           recomputes it instead of keeping a side table. *)
        used := !used - page_bytes sector);
    used_bytes = (fun () -> !used);
  }

(* ------------------------------------------------------------------ *)
(* Remote-memory tier                                                  *)
(* ------------------------------------------------------------------ *)

(* A far-memory node behind a network link: every transfer pays a fixed
   round-trip and the payload serializes on link bandwidth.  The
   [link_free_at] cursor is a degenerate token bucket (capacity = one
   transfer): concurrent swap-ins queue on it exactly as they would on
   a saturated NIC, while the RTT is paid in parallel by every request. *)
let remote ?(faults = Faults.Plan.none) ~engine ~rtt_us ~bytes_per_us () =
  let link_free_at_us = ref 0 in
  let transfer_us nsectors =
    max 1
      (int_of_float
         (Float.round
            (float_of_int (nsectors * Geom.sector_bytes) /. bytes_per_us)))
  in
  let occupy_link nsectors =
    let now = Sim.Time.to_us (Sim.Engine.now engine) in
    let start = max now !link_free_at_us in
    link_free_at_us := start + transfer_us nsectors;
    !link_free_at_us
  in
  {
    name = "remote";
    capacity_sectors = max_int;
    read =
      (fun ~sector ~nsectors ~queue:_ ~attempt k ->
        let now = Sim.Time.to_us (Sim.Engine.now engine) in
        let dt = Sim.Time.us (occupy_link nsectors + rtt_us - now) in
        (* Link timeout: Transient keyed on (sector, attempt), so a
           retry re-hashes and can succeed.  The full RTT + transfer is
           paid before the timeout is noticed, like a real timeout. *)
        let result =
          match Faults.Plan.remote_error faults ~sector ~attempt with
          | Some e -> Error e
          | None -> Ok ()
        in
        Sim.Engine.run_after engine dt (fun () -> k { result; service = dt }));
    write =
      (fun ~queue:_ ~sector:_ ~nsectors ->
        (* Outbound pages consume the same link; nobody awaits the ack. *)
        ignore (occupy_link nsectors));
    admit = (fun ~sector:_ -> true);
    release = (fun ~sector:_ ~nsectors:_ -> ());
    used_bytes = (fun () -> 0);
  }

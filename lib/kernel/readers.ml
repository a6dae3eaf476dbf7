(* The visible-reader set: one bitmap word per stripe, bit [tid] set while
   thread [tid] holds a read announcement on that stripe.  Every engine
   with visible reads shares it — RSTM's Visible mode, TLRW's blocking
   read slots and the composed Visible points.

   Readers [announce] BEFORE checking the stripe's owner: a writer that
   acquires afterwards is guaranteed to see the bit and [drain] it through
   the contention manager, and a writer that acquired before is caught by
   the reader's ownership check, so either side of the race is covered.
   Announcements are held until commit or abort ([retract_all]).

   The bitmap is one OCaml int per stripe, so thread ids stop at [cap]:
   engines pass [(label, cap)] to [Package.make], which refuses larger
   tids by name instead of corrupting the bitmap. *)

open Stm_intf

let cap = 62

type t = Runtime.Tmatomic.t array

(* One reader word per stripe, on the stripe's metadata cache line. *)
let create lines : t = Array.map (fun l -> Runtime.Tmatomic.make_shared l 0) lines

(* Set our bit on stripe [idx], once per transaction ([d.vreads] records
   the stripes we announced on). *)
let announce (rs : t) (d : Txdesc.t) idx =
  if not (Rset.mem d.vreads idx) then begin
    let r = rs.(idx) in
    let bit = 1 lsl d.tid in
    let rec go () =
      let cur = Runtime.Tmatomic.get r in
      if cur land bit = 0 then
        if not (Runtime.Tmatomic.cas r ~expect:cur ~replace:(cur lor bit)) then
          go ()
    in
    go ();
    ignore (Rset.add_unique d.vreads idx 0 : bool)
  end

(* Clear our bit on every announced stripe (commit and abort paths). *)
let retract_all (rs : t) (d : Txdesc.t) =
  Rset.iter
    (fun idx _ ->
      let r = rs.(idx) in
      let bit = 1 lsl d.tid in
      let rec clear () =
        let cur = Runtime.Tmatomic.get r in
        if cur land bit <> 0 then
          if
            not (Runtime.Tmatomic.cas r ~expect:cur ~replace:(cur land lnot bit))
          then clear ()
      in
      clear ())
    d.vreads

(* Abort or wait out every reader of [idx] other than ourselves, lowest
   tid first, each through the contention manager.  [rollback] is the
   engine's own (it releases the engine's locks, then unwinds). *)
let drain (rs : t) ~stats ~ser ~cm ~(descs : Txdesc.t array) ~rollback
    (d : Txdesc.t) idx =
  let r = rs.(idx) in
  let mine = 1 lsl d.tid in
  let rec go () =
    let cur = Runtime.Tmatomic.get r in
    let others = cur land lnot mine in
    if others <> 0 then begin
      if Hooks.kill_due ~ser d then rollback d Tx_signal.Killed;
      let victim_tid =
        (* lowest set bit *)
        let b = others land -others in
        let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
        log2 b 0
      in
      let victim = descs.(victim_tid).info in
      (match Hooks.cm_resolve ~stats ~ser ~cm d ~victim with
      | Cm.Cm_intf.Abort_self -> rollback d Tx_signal.Rw_validation
      | Cm.Cm_intf.Wait | Cm.Cm_intf.Killed_victim ->
          Stats.wait stats ~tid:d.tid;
          Runtime.Exec.pause ());
      go ()
    end
  in
  go ()

(* One CM-arbitrated wait on the stripe's [owner] (tid + 1): a visible
   read of an owned stripe, an eager freeze, or a w/w encounter.  The
   caller re-reads the owner word and loops. *)
let cm_wait ~eid ~stats ~ser ~cm ~(descs : Txdesc.t array) ~rollback
    (d : Txdesc.t) idx ~owner ~reason =
  if Hooks.kill_due ~ser d then rollback d Tx_signal.Killed;
  Hooks.stripe_conflict ~eid ~stripe:idx;
  let victim = descs.(owner - 1).info in
  match Hooks.cm_resolve ~stats ~ser ~cm d ~victim with
  | Cm.Cm_intf.Abort_self -> rollback d reason
  | Cm.Cm_intf.Wait | Cm.Cm_intf.Killed_victim ->
      Stats.wait stats ~tid:d.tid;
      Runtime.Exec.pause ()

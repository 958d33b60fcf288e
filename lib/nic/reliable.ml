module Time = Cni_engine.Time

type config = { timeout : Time.t; backoff : int; max_tries : int; max_rto : Time.t }

(* The 1 ms base timeout sits well above the fabric round-trip (a few us) plus
   the host-side queueing seen under bursty 8-processor traffic, so spurious
   retransmissions are rare at zero loss; backoff doubles it on each retry up
   to the 100 ms cap (reached only after ~7 consecutive losses of one frame,
   so the cap never fires in the deterministic ablation sweeps). *)
let default = { timeout = Time.us 1000; backoff = 2; max_tries = 12; max_rto = Time.ms 100 }

let check_config c =
  if c.timeout <= Time.zero then invalid_arg "Reliable: timeout must be positive";
  if c.backoff < 1 then invalid_arg "Reliable: backoff must be >= 1";
  if c.max_tries < 1 then invalid_arg "Reliable: max_tries must be >= 1";
  if c.max_rto < c.timeout then invalid_arg "Reliable: max_rto must be >= timeout"

(* Ack frames are ordinary Wire headers on a channel/kind no protocol uses;
   they are intercepted by the receiving interface before classification and
   never reach a handler. [obj] carries the acknowledged sequence number. *)
let ack_kind = 0xFE
let ack_channel = 0xFFFF

type failure = { node : int; dst : int; channel : int; seq : int; tries : int }

exception Delivery_failed of failure
exception Peer_dead of failure

let () =
  Printexc.register_printer (function
    | Delivery_failed f ->
        Some
          (Printf.sprintf
             "Delivery_failed: node %d -> %d, channel %d, seq %d undelivered after %d \
              transmissions"
             f.node f.dst f.channel f.seq f.tries)
    | Peer_dead f ->
        Some
          (Printf.sprintf
             "Peer_dead: node %d -> %d, channel %d, seq %d — destination crashed; gave up \
              after %d transmissions"
             f.node f.dst f.channel f.seq f.tries)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Delivery epochs                                                     *)
(* ------------------------------------------------------------------ *)

(* The Wire aux field carries (epoch << 24) | seq. Sequence numbers start at
   1, so aux is never 0 (0 marks unsequenced traffic); epochs occupy bits
   24-30 and saturate at 127 so the int32 on the wire stays positive. Epoch
   0 leaves aux equal to the bare sequence number — bit-identical to the
   pre-epoch encoding. *)
let epoch_shift = 24
let seq_mask = (1 lsl epoch_shift) - 1
let max_epoch = 127

let aux_of ~epoch ~seq =
  if epoch < 0 || epoch > max_epoch then invalid_arg "Reliable.aux_of: epoch out of range";
  if seq < 1 || seq > seq_mask then invalid_arg "Reliable.aux_of: seq out of range";
  (epoch lsl epoch_shift) lor seq

let split_aux aux = (aux lsr epoch_shift, aux land seq_mask)

module Window = struct
  type t = { mutable floor : int; above : (int, unit) Hashtbl.t }

  let create () = { floor = 0; above = Hashtbl.create 8 }
  let floor t = t.floor

  let observe t seq =
    if seq <= t.floor || Hashtbl.mem t.above seq then `Duplicate
    else begin
      Hashtbl.replace t.above seq ();
      (* advance the floor over any now-contiguous prefix so the out-of-order
         set stays bounded by the sender's in-flight window *)
      while Hashtbl.mem t.above (t.floor + 1) do
        Hashtbl.remove t.above (t.floor + 1);
        t.floor <- t.floor + 1
      done;
      `Fresh
    end
end

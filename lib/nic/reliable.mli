(** Reliable-delivery support for the network interfaces.

    The protocol is NIC-level stop-and-wait-with-window: every outgoing
    Wire frame is stamped with a per-destination sequence number (in the
    header's aux field, which no PATHFINDER pattern inspects), the receiving
    interface acknowledges each sequenced frame on arrival and suppresses
    duplicates, and the sender retransmits on an engine timer with
    exponential backoff until acked or the retry budget is exhausted — at
    which point {!Delivery_failed} surfaces through the owning fiber instead
    of the application hanging on a lost reply.

    On the CNI and OSIRIS boards the timers, acks and duplicate filtering
    run in board firmware (NIC-processor cost model); on the standard
    interface they live in the kernel, so every retransmission, duplicate
    and ack additionally costs the host an interrupt and a kernel path.

    This module holds the pure state machines and constants; {!Nic} drives
    them against the cost model. *)

type config = {
  timeout : Cni_engine.Time.t;  (** initial retransmission timeout *)
  backoff : int;  (** timeout multiplier applied on every retry *)
  max_tries : int;  (** total transmissions before giving up *)
  max_rto : Cni_engine.Time.t;
      (** retransmission-timeout ceiling: backoff stops doubling here, so
          late retries against a slow peer cannot overshoot the whole run *)
}

(** 1 ms initial timeout (well above fabric round-trip plus host queueing
    under bursty traffic, so zero-loss runs rarely retransmit spuriously),
    doubling, 12 transmissions, RTO capped at 100 ms — the budget covers
    transient link-down windows of a second or more. *)
val default : config

(** @raise Invalid_argument on a non-positive timeout, backoff < 1,
    max_tries < 1 or max_rto < timeout. *)
val check_config : config -> unit

(** Wire [kind] / [channel] of acknowledgment frames ([obj] = acked seq).
    Intercepted by the receive path before classification. *)
val ack_kind : int

val ack_channel : int

type failure = { node : int; dst : int; channel : int; seq : int; tries : int }

exception Delivery_failed of failure

(** Raised instead of {!Delivery_failed} when the retry budget runs out
    against a destination the fabric knows to be crashed: the sender learns
    its peer is dead rather than merely unreachable. A printer is
    registered. *)
exception Peer_dead of failure

(** {2 Delivery epochs}

    The Wire aux field of a sequenced frame carries
    [(epoch lsl 24) lor seq]: the low 24 bits are the per-destination
    sequence number (starting at 1, so aux is never 0 — 0 marks
    unsequenced traffic), bits 24–30 are the sender board's restart epoch.
    A receiver drops frames from an older epoch of a source than the newest
    it has seen, so retransmissions queued before a crash cannot corrupt
    the post-restart sequence space. Epoch 0 encodes to the bare sequence
    number, bit-identical to the pre-epoch wire format. *)

(** Epochs saturate here (127) rather than wrap, keeping the wire int32
    positive. *)
val max_epoch : int

(** @raise Invalid_argument if [epoch] is outside [0, max_epoch] or [seq]
    outside [1, 2^24 - 1]. *)
val aux_of : epoch:int -> seq:int -> int

(** [split_aux aux] is [(epoch, seq)]. *)
val split_aux : int -> int * int

(** Per-source receive window: duplicate suppression with a floor that
    advances over contiguously seen sequence numbers (senders allocate
    1, 2, 3, ... per destination). *)
module Window : sig
  type t

  val create : unit -> t

  (** Highest sequence number below which everything has been seen. *)
  val floor : t -> int

  val observe : t -> int -> [ `Fresh | `Duplicate ]
end

(** Synchronisation primitives for simulated fibers.

    All blocking operations must run inside a fiber ({!Engine.spawn}).
    Non-blocking operations ([fill], [send], [release], ...) may be called
    from any event context. *)

module Ivar : sig
  (** Write-once cell. *)
  type 'a t

  val create : unit -> 'a t
  val is_filled : 'a t -> bool

  (** Blocks until the ivar is filled; returns immediately if it already is. *)
  val read : 'a t -> 'a

  (** @raise Invalid_argument if already filled. *)
  val fill : 'a t -> 'a -> unit

  (** [peek t] is [Some v] if filled. *)
  val peek : 'a t -> 'a option
end

module Channel : sig
  (** Unbounded FIFO mailbox. *)
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit

  (** Blocks until a value is available. *)
  val recv : 'a t -> 'a

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

module Semaphore : sig
  (** Counting semaphore with FIFO wakeup order. *)
  type t

  val create : int -> t

  (** Blocks while the count is zero; decrements. *)
  val acquire : t -> unit

  val try_acquire : t -> bool
  val release : t -> unit
  val available : t -> int
  val waiting : t -> int
end

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit

  (** [with_lock t f] runs [f] holding the lock, releasing it on return. *)
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  (** Broadcast-style condition: [await] blocks until the next [signal_all]. *)
  type t

  val create : unit -> t
  val await : t -> unit
  val signal_all : t -> unit
  val waiting : t -> int
end

module Clock : sig
  (** A resource that serves one request at a time in request order, kept
      as the time it next falls free. A request's completion is
      [max now free + d], exactly what a one-count {!Sync.Semaphore} held across
      an [Engine.delay d] gives it, without the waiter's wakeup event. *)
  type t

  val create : Engine.t -> t

  (** [reserve t d] books the resource for [d] after every earlier request
      and returns the time the booking ends. It never blocks, so it may be
      called from any event context. *)
  val reserve : t -> Time.t -> Time.t

  (** [hold t d] reserves [d] and waits until the booking ends (one event);
      from inside a fiber. *)
  val hold : t -> Time.t -> unit
end

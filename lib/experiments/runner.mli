(** One-stop execution of an application on a freshly built cluster. *)

type app =
  Cni_dsm.Protocol.msg Cni_cluster.Cluster.t -> Cni_dsm.Lrc.t array -> unit

(** How a run ended: every application fiber finished, or the fault that
    stopped it. DESIGN.md §7c tables the names, exit codes and the
    exceptions behind them. *)
type outcome = Ok | Delivery_failed | Peer_dead | Deadlock | Watchdog | Barrier_timeout

(** ["ok"], ["delivery-failed"], ["peer-dead"], ["deadlock"], ["watchdog"] or
    ["barrier-timeout"]. *)
val outcome_name : outcome -> string

(** 0 for [Ok], 3 to 7 for the failures. *)
val exit_code : outcome -> int

(** 2: a preflight check refused the run before it started. *)
val preflight_refused : int

(** Every nonzero code above with its meaning: the EXIT STATUS of each
    command that runs a simulation. *)
val exit_table : (int * string) list

(** [classify e] sorts an exception that ended a run, raised directly or by
    a fiber ({!Cni_engine.Engine.Fiber_failure}), into its outcome and a
    one-line message. [None] means no outcome names it: a bug, not a fault. *)
val classify : exn -> (outcome * string) option

(** [stopped cluster ~waits e] is the outcome of a run [e] ended, with its
    detail: the message of [e] and, for a deadlock or a watchdog, [waits n]
    of each node [n] whose application never finished.
    @raise e when {!classify} does not name it. *)
val stopped :
  'a Cni_cluster.Cluster.t -> waits:(int -> string) -> exn -> outcome * string list

(** The [outcome] line, then each detail line indented by two spaces. *)
val print_outcome : out_channel -> outcome -> string list -> unit

type result = {
  outcome : outcome;
  detail : string list;  (** see {!stopped}; empty when [outcome = Ok] *)
  elapsed : Cni_engine.Time.t;  (** see {!Cni_cluster.Cluster.elapsed} *)
  elapsed_cycles : float;  (** in CPU cycles (the paper's unit) *)
  hit_ratio : float;  (** network cache hit ratio, percent *)
  computation : Cni_engine.Time.t;
  synch_overhead : Cni_engine.Time.t;
  synch_delay : Cni_engine.Time.t;
  totals : Cni_cluster.Cluster.totals;  (** as they stood when the run stopped *)
  message_mix : (string * int) list;
      (** protocol messages received, by kind, summed over nodes *)
  metrics : Cni_engine.Stats.Registry.snapshot;
      (** full registry snapshot: every node's NIC, ring, Message Cache, DSM
          and time-accounting metrics *)
}

(** Convenience NIC kinds. [rx_policy] and [rx_batch] configure the receive
    wakeup policy and coalescing depth of the CNI board (see
    {!Cni_nic.Nic.cni_options}). *)
val cni :
  ?mc_bytes:int ->
  ?mc_mode:Cni_nic.Message_cache.mode ->
  ?aih:bool ->
  ?rx_policy:Cni_nic.Nic.rx_policy ->
  ?rx_batch:int ->
  unit ->
  Cni_cluster.Cluster.nic_kind

val standard : Cni_cluster.Cluster.nic_kind

(** The OSIRIS base board: the intermediate design point. *)
val osiris : Cni_cluster.Cluster.nic_kind

(** [run ~kind ~procs app] builds a cluster + DSM and runs [app] to
    completion. [params] defaults to Table 1. [faults] makes the fabric
    lossy (implying NIC reliable delivery, see {!Cni_cluster.Cluster.create});
    [reliability] tunes or force-enables the delivery protocol;
    [topology] selects the fabric shape (see {!Cni_atm.Topology});
    [barrier_impl] selects the DSM barrier implementation (see
    {!Cni_dsm.Lrc.install}).

    A run a fault ends still returns, with its {!outcome}; the detail of a
    deadlock or a watchdog is {!Cni_dsm.Lrc.debug_waits} of each unfinished
    node. An exception {!classify} does not name propagates. *)
val run :
  ?params:Cni_machine.Params.t ->
  ?faults:Cni_atm.Faults.config ->
  ?reliability:Cni_nic.Reliable.config ->
  ?topology:Cni_atm.Topology.kind ->
  ?barrier_impl:[ `Centralised | `Nic_collective ] ->
  kind:Cni_cluster.Cluster.nic_kind ->
  procs:int ->
  app ->
  result

(** [speedup ~t1 r] = t1 / elapsed. *)
val speedup : t1:Cni_engine.Time.t -> result -> float

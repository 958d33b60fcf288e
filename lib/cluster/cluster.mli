(** A workstation cluster: N nodes on an ATM fabric (a single central
    switch by default; see {!Cni_atm.Topology} for scale-out shapes).

    Polymorphic in the protocol-message payload type ['a] (the DSM layer
    instantiates it with its message type; examples use their own). *)

type nic_kind =
  [ `Cni of Cni_nic.Nic.cni_options | `Osiris of Cni_nic.Nic.osiris_options | `Standard ]

type 'a t

(** [faults] attaches a {!Cni_atm.Faults} model to the fabric (ignored when
    it is {!Cni_atm.Faults.is_none}); a faulty fabric implies NIC-level
    reliable delivery — [reliability] defaults to
    {!Cni_nic.Reliable.default} whenever faults are active, and can be
    passed explicitly to tune it (or to enable reliability on a clean
    fabric). [reliability_off] forces NIC reliability off even under
    faults, for workloads that bring their own recovery protocol — the
    firmware-compiled {!Cni_nic.Reliable_ir} endpoints, notably — and
    accept raw loss everywhere else. A non-empty [faults.schedule] is
    validated against the node
    count and wired onto engine timers: a crash freezes the node's
    application fiber, kills its board (a scrub wipes board memory) and
    severs its link; a restart revives the board under a new delivery
    epoch, reattaches the link and thaws the fiber.

    [topology] selects the fabric's interconnect shape (default
    {!Cni_atm.Topology.Single}, the seed central switch).

    @raise Invalid_argument on an inconsistent fault schedule (see
    {!Cni_atm.Faults.validate}) or a topology that rejects the node count
    (see {!Cni_atm.Topology.validate}). *)
val create :
  ?params:Cni_machine.Params.t ->
  ?faults:Cni_atm.Faults.config ->
  ?reliability:Cni_nic.Reliable.config ->
  ?reliability_off:bool ->
  ?topology:Cni_atm.Topology.kind ->
  nic_kind:nic_kind ->
  nodes:int ->
  unit ->
  'a t

val engine : 'a t -> Cni_engine.Engine.t
val params : 'a t -> Cni_machine.Params.t
val fabric : 'a t -> 'a Cni_atm.Fabric.t
val size : 'a t -> int
val node : 'a t -> int -> 'a Node.t
val nodes : 'a t -> 'a Node.t array
val is_cni : 'a t -> bool

(** Raised by {!run_app} when the event queue drained but some
    {e non-crashed} node's application fiber never finished — a protocol
    deadlock. [crashed] lists nodes that crashed without restarting (those
    alone do {e not} raise: they are expected casualties of the fault
    schedule). A printer is registered. *)
exception Deadlock of { unfinished : int list; crashed : int list }

(** [run_app t f] spawns one application fiber per node running [f node],
    drives the simulation until every event drains, and returns. Application
    exceptions propagate (annotated by the engine). [watchdog] bounds the
    run with {!Cni_engine.Engine.run_watched}: events still pending past the
    limit raise [Engine.Quiescence_timeout] instead of spinning forever.
    @raise Deadlock when a live node's fiber never finished. *)
val run_app : ?watchdog:Cni_engine.Time.t -> 'a t -> ('a Node.t -> unit) -> unit

(** [false] between a node's scheduled crash and its restart. *)
val node_alive : 'a t -> int -> bool

(** Wall-clock of the slowest application fiber (valid after {!run_app});
    when {!run_app} raised, the simulated time the run stopped at. *)
val elapsed : 'a t -> Cni_engine.Time.t

(** Mean network cache hit ratio over nodes whose Message Cache saw lookups
    (idle nodes are excluded from the average); 0. when no node saw any. *)
val network_cache_hit_ratio : 'a t -> float

(** The cluster's metrics registry. Every node's NIC, transmit-descriptor
    ring, Message Cache (and, when the DSM layer is attached, its protocol
    counters) register here as [node<N>/<subsystem>/<metric>]. *)
val metrics : 'a t -> Cni_engine.Stats.Registry.t

(** Refresh the per-node time-accounting gauges
    ([node<N>/node/{computation_ps,synch_overhead_ps,synch_delay_ps,
    service_ps,finish_ps}] and [cluster/elapsed_ps]) and return a snapshot of
    the whole registry. Valid after {!run_app}; idempotent. *)
val metrics_snapshot : 'a t -> Cni_engine.Stats.Registry.snapshot

(** Every fabric and NIC counter a run reports, summed over nodes; valid
    once {!run_app} returns or raises. *)
type totals = {
  packets : int;  (** frames that got onto the wire *)
  offered_packets : int;  (** every send, including frames a dead source never sent *)
  delivered_packets : int;  (** frames that reached their destination node *)
  wire_bytes : int;
  hop_waits : int;  (** hops where port or wire contention delayed a frame *)
  banyan_conflicts : int;  (** internal switch wire overlaps *)
  retransmits : int;  (** NIC-level re-sends (0 with reliability off) *)
  fault_drops : int;  (** frames the injected fault model destroyed *)
  crash_drops : int;  (** frames the fabric dropped at a dead board *)
  host_interrupts : int;  (** zero on a CNI board when everything runs as AIHs *)
  polls : int;  (** receive wakeups taken by a host poll *)
  wasted_polls : int;  (** empty receive-ring checks in poll mode *)
  recovery_latencies : Cni_engine.Time.t list;
      (** restart-to-first-frame latency of each revived board, unordered *)
}

val totals : 'a t -> totals

(** Per-category totals summed over nodes (paper Tables 2-4 report sums over
    the run; we report the same). *)
type overheads = {
  computation : Cni_engine.Time.t;
  synch_overhead : Cni_engine.Time.t;
  synch_delay : Cni_engine.Time.t;
  total : Cni_engine.Time.t;  (** elapsed wall-clock of the slowest node *)
}

val overheads : 'a t -> overheads

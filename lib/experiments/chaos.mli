(** Crash/restart chaos harness.

    Builds a deterministic node-fault schedule from a seed (disjoint
    crash->restart windows over random victims — node 0, the DSM manager, is
    spared) and injects it into a real application run, reporting recovery
    metrics. Two invocations with the same arguments produce identical
    metrics; the [ablation-chaos] report and the CI chaos smoke both rely on
    that. *)

type metrics = {
  outcome : Runner.outcome;
  detail : string list;  (** see {!Runner.stopped}; empty when the run completed *)
  elapsed_us : float;
  crashes : int;  (** crash events in the schedule *)
  restarts : int;
  retransmits : int;
  crash_drops : int;  (** frames the fabric dropped at a dead board *)
  recoveries : int;  (** restarted boards that saw traffic again *)
  mean_recovery_us : float;
      (** mean restart-to-first-frame latency over [recoveries] *)
  rx_timeouts : int;  (** open-loop receives that gave up (ring runs only) *)
  checksum : float;  (** application checksum; [nan] when the run failed *)
}

(** Closed-loop chaos: Jacobi over the DSM under a crash schedule. Crashed
    hosts freeze and thaw; reliable delivery retries across the dead window,
    so the run is expected to complete with the fault-free checksum, the
    crashes paid for as elapsed time. The [watchdog] (default 1 s simulated)
    turns an unrecovered run into a structured failure row. The run is a
    {!Runner.run}. Crash [k] lands in a 600 us slot (plus seeded jitter) and
    restarts [down] later.
    @raise Invalid_argument before anything runs when [down] does not fit
    the slot, [crashes] is negative, or [crashes > 0] with fewer than 2
    nodes; {!run_ring} likewise. *)
val run_dsm :
  ?seed:int ->
  ?procs:int ->
  ?n:int ->
  ?iterations:int ->
  ?scrub:bool ->
  ?watchdog:Cni_engine.Time.t ->
  ?kind:
    [ `Cni of Cni_nic.Nic.cni_options
    | `Osiris of Cni_nic.Nic.osiris_options
    | `Standard ] ->
  crashes:int ->
  down:Cni_engine.Time.t ->
  unit ->
  metrics

(** Open-loop chaos: a token ring over {!Cni_mp.Mp} where every receive is a
    [recv_timeout] — a round whose predecessor is crashed gives up after
    [rx_timeout] and moves on, so the ring degrades (counted in
    [rx_timeouts]) instead of stalling. The detail of a deadlock or a
    watchdog is {!Cni_mp.Mp.debug_state} of each unfinished rank. *)
val run_ring :
  ?seed:int ->
  ?nodes:int ->
  ?rounds:int ->
  ?scrub:bool ->
  ?rx_timeout:Cni_engine.Time.t ->
  ?watchdog:Cni_engine.Time.t ->
  ?kind:
    [ `Cni of Cni_nic.Nic.cni_options
    | `Osiris of Cni_nic.Nic.osiris_options
    | `Standard ] ->
  crashes:int ->
  down:Cni_engine.Time.t ->
  unit ->
  metrics

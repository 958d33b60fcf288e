type run_stats = {
  events_dispatched : int;
  max_heap_depth : int;
  past_clamps : int;
}

type t = {
  mutable now : Time.t;
  q : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable dispatched : int;
  mutable max_depth : int;
  mutable clamped : int;
}

exception Fiber_failure of string * exn

let create () =
  { now = Time.zero; q = Heap.create (); seq = 0; dispatched = 0; max_depth = 0; clamped = 0 }

let now t = t.now

let run_stats t =
  { events_dispatched = t.dispatched; max_heap_depth = t.max_depth; past_clamps = t.clamped }

let at t time f =
  (* Scheduling into the past is clamped to [now] so time never runs
     backwards, but silently losing the requested time hides protocol bugs:
     count every clamp and leave a trace record of how far back the caller
     aimed. *)
  let time =
    if time < t.now then begin
      t.clamped <- t.clamped + 1;
      if Trace.enabled_cat Trace.Engine then
        Trace.emit ~t_ps:(Time.to_ps t.now) ~node:(-1) Trace.Engine ~label:"past-clamp"
          ~payload:(Time.to_ps t.now - Time.to_ps time);
      t.now
    end
    else time
  in
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.add t.q ~key:(Time.to_ps time) ~seq f;
  let depth = Heap.length t.q in
  if depth > t.max_depth then t.max_depth <- depth

let after t d f = at t Time.(t.now + d) f
let pending t = Heap.length t.q

let step t =
  let key = Heap.min_key t.q in
  let f = Heap.pop_min_value t.q in
  t.now <- Time.ps key;
  t.dispatched <- t.dispatched + 1;
  if Trace.enabled_cat Trace.Engine then
    Trace.emit ~t_ps:key ~node:(-1) Trace.Engine ~label:"event" ~payload:(Heap.length t.q);
  f ()

let run t =
  while not (Heap.is_empty t.q) do
    step t
  done

let run_until t limit =
  while (not (Heap.is_empty t.q)) && Heap.min_key t.q <= Time.to_ps limit do
    step t
  done

exception
  Quiescence_timeout of { limit : Time.t; now : Time.t; pending : int }

let () =
  Printexc.register_printer (function
    | Quiescence_timeout { limit; now; pending } ->
        Some
          (Printf.sprintf
             "Engine.Quiescence_timeout: %d event(s) still pending past the \
              %.3f us watchdog limit (last dispatched event at %.3f us)"
             pending (Time.to_us_float limit) (Time.to_us_float now))
    | _ -> None)

let run_watched t ~limit =
  run_until t limit;
  if not (Heap.is_empty t.q) then
    raise (Quiescence_timeout { limit; now = t.now; pending = Heap.length t.q })

(* ------------------------------------------------------------------ *)
(* Fibers                                                             *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Delay : Time.t -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Yield : unit Effect.t

let delay d = Effect.perform (Delay d)
let suspend register = Effect.perform (Suspend register)
let yield () = Effect.perform Yield

let spawn t ?(name = "fiber") ?at:start f =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          match e with
          | Fiber_failure _ -> raise e
          | _ -> raise (Fiber_failure (name ^ ": " ^ Printexc.to_string e, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  after t d (fun () -> continue k ()))
          | Yield ->
              Some (fun (k : (a, unit) continuation) -> at t t.now (fun () -> continue k ()))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  let resume v =
                    if !resumed then
                      invalid_arg (Printf.sprintf "Engine: fiber %S resumed twice" name);
                    resumed := true;
                    at t t.now (fun () -> continue k v)
                  in
                  register resume)
          | _ -> None);
    }
  in
  at t (Option.value start ~default:t.now) (fun () -> match_with f () handler)

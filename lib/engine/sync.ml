module Ivar = struct
  type 'a state = Empty of ('a -> unit) Queue.t | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty (Queue.create ()) }

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters -> Engine.suspend (fun resume -> Queue.add resume waiters)

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        Queue.iter (fun resume -> resume v) waiters

  let peek t = match t.state with Full v -> Some v | Empty _ -> None
end

module Channel = struct
  type 'a t = { values : 'a Queue.t; waiters : ('a -> unit) Queue.t }

  let create () = { values = Queue.create (); waiters = Queue.create () }

  let send t v =
    match Queue.take_opt t.waiters with
    | Some resume -> resume v
    | None -> Queue.add v t.values

  let recv t =
    match Queue.take_opt t.values with
    | Some v -> v
    | None -> Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let try_recv t = Queue.take_opt t.values
  let length t = Queue.length t.values
end

module Semaphore = struct
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { count; waiters = Queue.create () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let release t =
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> t.count <- t.count + 1

  let available t = t.count
  let waiting t = Queue.length t.waiters
end

module Mutex = struct
  type t = Semaphore.t

  let create () = Semaphore.create 1
  let lock = Semaphore.acquire
  let unlock = Semaphore.release

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

module Condition = struct
  type t = { mutable waiters : (unit -> unit) Queue.t }

  let create () = { waiters = Queue.create () }

  let await t = Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let signal_all t =
    let q = t.waiters in
    t.waiters <- Queue.create ();
    Queue.iter (fun resume -> resume ()) q

  let waiting t = Queue.length t.waiters
end

module Clock = struct
  type t = { eng : Engine.t; mutable free : Time.t }

  let create eng = { eng; free = Time.zero }

  let reserve t d =
    let start = Time.max (Engine.now t.eng) t.free in
    t.free <- Time.(start + d);
    t.free

  let hold t d =
    let finish = reserve t d in
    Engine.delay Time.(finish - Engine.now t.eng)
end

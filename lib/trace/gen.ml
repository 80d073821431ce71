open Ids
open Velodrome_util

type config = {
  threads : int;
  vars : int;
  locks : int;
  labels : int;
  steps : int;
  w_read : int;
  w_write : int;
  w_acquire : int;
  w_release : int;
  w_begin : int;
  w_end : int;
  max_depth : int;
  close_trailing : bool;
}

let default =
  {
    threads = 3;
    vars = 4;
    locks = 2;
    labels = 3;
    steps = 40;
    w_read = 5;
    w_write = 5;
    w_acquire = 3;
    w_release = 3;
    w_begin = 3;
    w_end = 3;
    max_depth = 2;
    close_trailing = true;
  }

let small =
  {
    default with
    threads = 2;
    vars = 2;
    locks = 1;
    steps = 8;
    max_depth = 1;
  }

let dense =
  { default with threads = 4; vars = 2; locks = 1; steps = 60; max_depth = 3 }

type thread_state = { mutable depth : int; mutable held : int list }

let run rng cfg =
  if cfg.threads <= 0 then invalid_arg "Gen.run: need at least one thread";
  let ops = Vec.create () in
  let states = Array.init cfg.threads (fun _ -> { depth = 0; held = [] }) in
  let lock_free = Array.make (max cfg.locks 1) true in
  let emit op = Vec.push ops op in
  for _ = 1 to cfg.steps do
    let ti = Rng.int rng cfg.threads in
    let t = Tid.of_int ti in
    let st = states.(ti) in
    (* Build the weighted candidate list valid in the current state. *)
    let candidates = ref [] in
    let add w f = if w > 0 then candidates := (w, f) :: !candidates in
    if cfg.vars > 0 then begin
      add cfg.w_read (fun () ->
          emit (Op.Read (t, Var.of_int (Rng.int rng cfg.vars))));
      add cfg.w_write (fun () ->
          emit (Op.Write (t, Var.of_int (Rng.int rng cfg.vars))))
    end;
    if cfg.locks > 0 then begin
      let free =
        List.filter (fun m -> lock_free.(m)) (List.init cfg.locks Fun.id)
      in
      if free <> [] then
        add cfg.w_acquire (fun () ->
            let m = List.nth free (Rng.int rng (List.length free)) in
            lock_free.(m) <- false;
            st.held <- m :: st.held;
            emit (Op.Acquire (t, Lock.of_int m)));
      if st.held <> [] then
        add cfg.w_release (fun () ->
            let m = List.nth st.held (Rng.int rng (List.length st.held)) in
            lock_free.(m) <- true;
            st.held <- List.filter (fun x -> x <> m) st.held;
            emit (Op.Release (t, Lock.of_int m)))
    end;
    if st.depth < cfg.max_depth && cfg.labels > 0 then
      add cfg.w_begin (fun () ->
          st.depth <- st.depth + 1;
          emit (Op.Begin (t, Label.of_int (Rng.int rng cfg.labels))));
    if st.depth > 0 then
      add cfg.w_end (fun () ->
          st.depth <- st.depth - 1;
          emit (Op.End t));
    match !candidates with
    | [] -> ()
    | cands ->
      let total = List.fold_left (fun acc (w, _) -> acc + w) 0 cands in
      let pick = Rng.int rng total in
      let rec go acc = function
        | [] -> assert false
        | (w, f) :: rest -> if pick < acc + w then f () else go (acc + w) rest
      in
      go 0 cands
  done;
  if cfg.close_trailing then
    Array.iteri
      (fun ti st ->
        let t = Tid.of_int ti in
        List.iter
          (fun m ->
            lock_free.(m) <- true;
            emit (Op.Release (t, Lock.of_int m)))
          st.held;
        st.held <- [];
        while st.depth > 0 do
          st.depth <- st.depth - 1;
          emit (Op.End t)
        done)
      states;
  Trace.of_array (Vec.to_array ops)

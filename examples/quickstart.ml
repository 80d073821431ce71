(* Quickstart: the paper's Section 1 example.

   Set.add is built from two individually synchronized Vector operations
   (contains, then add). Each Vector call takes the vector's monitor, so
   Eraser sees no data race — yet Set.add is not atomic: another thread
   can change the vector between the two calls.

   This example builds that program in the embedded DSL, runs it under
   the deterministic simulator with Velodrome attached, and prints the
   warning together with its dot error graph — the exact artefact the
   paper's Section 5 shows.

   Run with: dune exec examples/quickstart.exe *)

open Velodrome_sim
open Velodrome_analysis
open Builder

let () =
  let b = create () in
  let vector = lock b "Vector.monitor" in
  let elems = var b "elems" in
  (* Two threads concurrently add elements to the same Set. *)
  threads b 2 (fun _ ->
      let seen = fresh_reg b in
      let k = fresh_reg b in
      [
        local k (i 0);
        while_ (r k <: i 20)
          [
            atomic (label b "Set.add")
              (* if (!elems.contains(x)) elems.add(x) *)
              (sync vector [ read seen elems ]
              @ [ yield ]
              @ sync vector [ read seen elems; write elems (r seen +: i 1) ]);
            local k (r k +: i 1);
          ];
      ]);
  let program = program b in
  let names = program.Ast.names in

  let velodrome = Backend.make (Velodrome_core.Engine.backend ()) names in
  let config =
    { Run.default_config with policy = Run.Random 7; record_trace = true }
  in
  let result = Run.run ~config program [ velodrome ] in

  Printf.printf "Executed %d operations.\n\n" result.Run.events;
  match Warning.dedup_by_label result.Run.warnings with
  | [] -> print_endline "No atomicity violations observed (try another seed)."
  | warnings ->
    List.iter
      (fun w ->
        Format.printf "Warning: %a@.@." (Warning.pp names) w;
        match Warning.dot names w with
        | Some dot ->
          print_endline "Error graph (render with `dot -Tpdf`):";
          print_endline dot
        | None -> ())
      warnings;
    (* The offline oracle agrees that the observed trace really is
       non-serializable — Velodrome warnings are never false alarms. *)
    let trace = Option.get result.Run.trace in
    Printf.printf "Oracle confirms the trace is non-serializable: %b\n"
      (not (Velodrome_oracle.Oracle.serializable trace))

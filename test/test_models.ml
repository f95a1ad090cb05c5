(* Model-based property tests: each mutable container is driven by a random
   command sequence and compared against a trivially correct model after
   every step. *)

(* ------------------------------------------------- Vec vs a list model *)

type vec_cmd = Push of int | Pop | Set of int * int | Clear

let vec_cmd_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun x -> Push x) small_int);
        (2, return Pop);
        (2, map2 (fun i x -> Set (i, x)) small_nat small_int);
        (1, return Clear);
      ])

let vec_model_prop =
  QCheck.Test.make ~name:"Vec agrees with a list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) vec_cmd_gen))
    (fun cmds ->
      let v = Ds.Vec.create () in
      let model = ref [] in
      (* model holds elements in push order *)
      List.for_all
        (fun cmd ->
          (match cmd with
          | Push x ->
              Ds.Vec.push v x;
              model := !model @ [ x ]
          | Pop -> (
              let expected =
                match List.rev !model with
                | [] -> None
                | last :: rest ->
                    model := List.rev rest;
                    Some last
              in
              match (Ds.Vec.pop v, expected) with
              | Some a, Some b when a = b -> ()
              | None, None -> ()
              | _ -> failwith "pop mismatch")
          | Set (i, x) ->
              if i < List.length !model then begin
                Ds.Vec.set v i x;
                model := List.mapi (fun j y -> if j = i then x else y) !model
              end
          | Clear ->
              Ds.Vec.clear v;
              model := []);
          Ds.Vec.length v = List.length !model
          && List.for_all2 (fun a b -> a = b) (Array.to_list (Ds.Vec.to_array v)) !model)
        cmds)

let suite =
  [
    QCheck_alcotest.to_alcotest vec_model_prop;
  ]

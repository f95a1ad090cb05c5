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

(* --------------------------- Indexed_heap vs an association-list model *)

type heap_cmd = HInsert of int * float | HUpdate of int * float | HPop

let heap_model_prop =
  QCheck.Test.make ~name:"Indexed_heap agrees with an assoc model" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 80)
           (frequency
              [
                (4, map2 (fun k p -> HInsert (k, p)) (int_bound 30) (float_range 0.0 100.0));
                (3, map2 (fun k p -> HUpdate (k, p)) (int_bound 30) (float_range 0.0 100.0));
                (3, return HPop);
              ])))
    (fun cmds ->
      let h = Ds.Indexed_heap.create 31 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun cmd ->
          (match cmd with
          | HInsert (k, p) ->
              if not (Hashtbl.mem model k) then begin
                Ds.Indexed_heap.insert h k p;
                Hashtbl.add model k p
              end
          | HUpdate (k, p) ->
              if Hashtbl.mem model k then begin
                Ds.Indexed_heap.update h k p;
                Hashtbl.replace model k p
              end
          | HPop -> (
              let expected =
                Hashtbl.fold
                  (fun k p acc ->
                    match acc with
                    | None -> Some (k, p)
                    | Some (_, bp) when p < bp -> Some (k, p)
                    | _ -> acc)
                  model None
              in
              match (Ds.Indexed_heap.pop_min h, expected) with
              | None, None -> ()
              | Some (_, pa), Some (kb, pb) when pa = pb ->
                  (* Ties may pop either key; trust priority equality and
                     remove the key the heap chose. *)
                  let popped_key =
                    (* Recover which key the heap removed: it is no longer a
                       member. *)
                    Hashtbl.fold
                      (fun k _ acc -> if not (Ds.Indexed_heap.mem h k) then k :: acc else acc)
                      model []
                    |> function
                    | [ k ] -> k
                    | _ -> kb
                  in
                  Hashtbl.remove model popped_key
              | _ -> failwith "pop mismatch"));
          Ds.Indexed_heap.length h = Hashtbl.length model)
        cmds)

let suite =
  [
    QCheck_alcotest.to_alcotest vec_model_prop;
    QCheck_alcotest.to_alcotest heap_model_prop;
  ]

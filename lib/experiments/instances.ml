type multiproc_spec = {
  name : string;
  family : Hyper.Generate.family;
  n : int;
  p : int;
  dv : int;
  dh : int;
  g : int;
}

(* (n, p) combinations with n >= 5p, in Table I order. *)
let np_grid = [ (1280, 256); (5120, 256); (5120, 1024); (20480, 256); (20480, 1024); (20480, 4096) ]

let prefix family g =
  match (family, g) with
  | Hyper.Generate.Fewg_manyg, 32 -> "FG"
  | Hyper.Generate.Fewg_manyg, _ -> "MG"
  | Hyper.Generate.Hilo, 32 -> "HLF"
  | Hyper.Generate.Hilo, _ -> "HLM"

let multiproc_name family ~n ~p ~g = Printf.sprintf "%s-%d-%d-MP" (prefix family g) (n / 256) (p / 256)

let paper_grid () =
  let dv = 5 and dh = 10 in
  let block family =
    List.concat_map
      (fun (n, p) ->
        List.map
          (fun g -> { name = multiproc_name family ~n ~p ~g; family; n; p; dv; dh; g })
          [ 32; 128 ])
      np_grid
  in
  block Hyper.Generate.Fewg_manyg @ block Hyper.Generate.Hilo

let scaled k spec =
  if k <= 0 then invalid_arg "Instances.scaled: k must be positive";
  if k = 1 then spec
  else begin
    let p = max 1 (spec.p / k) in
    let n = max (5 * p) (spec.n / k) in
    let g = min spec.g p in
    { spec with name = Printf.sprintf "%s/%d" spec.name k; n; p; g }
  end

(* Per-replicate streams are derived from both the instance name and the
   seed, so different specs never share a stream. *)
let stream ~seed name =
  let h = Hashtbl.hash (name : string) in
  Randkit.Prng.create ~seed:((seed * 1_000_003) lxor h)

let generate_multiproc ~seed ~weights spec =
  let rng = stream ~seed spec.name in
  Hyper.Generate.generate rng ~family:spec.family ~n:spec.n ~p:spec.p ~dv:spec.dv ~dh:spec.dh
    ~g:spec.g ~weights

type singleproc_spec = {
  sp_name : string;
  sp_family : [ `Fewg_manyg | `Hilo ];
  sp_n : int;
  sp_p : int;
  sp_d : int;
  sp_g : int;
}

let singleproc_prefix family g =
  match (family, g) with
  | `Fewg_manyg, 32 -> "FG"
  | `Fewg_manyg, _ -> "MG"
  | `Hilo, 32 -> "HLF"
  | `Hilo, _ -> "HLM"

let paper_grid_singleproc ?(d = 10) () =
  let block family =
    List.concat_map
      (fun (n, p) ->
        List.map
          (fun g ->
            {
              sp_name = Printf.sprintf "%s-%d-%d" (singleproc_prefix family g) (n / 256) (p / 256);
              sp_family = family;
              sp_n = n;
              sp_p = p;
              sp_d = d;
              sp_g = g;
            })
          [ 32; 128 ])
      np_grid
  in
  block `Fewg_manyg @ block `Hilo

let scaled_singleproc k (spec : singleproc_spec) =
  if k <= 0 then invalid_arg "Instances.scaled_singleproc: k must be positive";
  if k = 1 then spec
  else begin
    let sp_p = max 1 (spec.sp_p / k) in
    {
      spec with
      sp_name = Printf.sprintf "%s/%d" spec.sp_name k;
      sp_n = max (5 * sp_p) (spec.sp_n / k);
      sp_p;
      sp_g = min spec.sp_g sp_p;
    }
  end

let generate_singleproc ~seed spec =
  let rng = stream ~seed spec.sp_name in
  match spec.sp_family with
  | `Fewg_manyg -> Bipartite.Fewg_manyg.generate rng ~n1:spec.sp_n ~n2:spec.sp_p ~g:spec.sp_g ~d:spec.sp_d
  | `Hilo -> Bipartite.Hilo.generate ~n1:spec.sp_n ~n2:spec.sp_p ~g:spec.sp_g ~d:spec.sp_d

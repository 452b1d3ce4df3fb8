type state = Active | Detached | Deleted

type payload = ..

type obj = {
  handle : int;
  kind : string;
  mutable name : string;
  mutable state : state;
  mutable payload : payload;
}

type t = { objects : (int, obj) Hashtbl.t; mutable next_handle : int }

let create () = { objects = Hashtbl.create 64; next_handle = 1 }

let register t ~kind ~name payload =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let obj = { handle; kind; name; state = Active; payload } in
  Hashtbl.replace t.objects handle obj;
  obj

let lookup t handle = Hashtbl.find_opt t.objects handle

let lookup_active t handle ~kind =
  match Hashtbl.find_opt t.objects handle with
  | None -> Error Kerr.enoent
  | Some obj ->
    if obj.state <> Active then Error Kerr.enoent
    else if obj.kind <> kind then Error Kerr.einval
    else Ok obj

let detach obj = obj.state <- Detached

let delete obj = obj.state <- Deleted

let fold t f init =
  Hashtbl.fold (fun _ obj acc -> f acc obj) t.objects init

let active_count t = fold t (fun acc obj -> if obj.state = Active then acc + 1 else acc) 0

let of_kind t kind =
  fold t (fun acc obj -> if obj.state = Active && obj.kind = kind then obj :: acc else acc) []
  |> List.sort (fun a b -> compare a.handle b.handle)

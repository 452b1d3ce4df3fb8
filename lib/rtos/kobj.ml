type state = Active | Detached | Deleted

type payload = ..

type obj = {
  handle : int;
  kind : string;
  mutable name : string;
  mutable state : state;
  mutable payload : payload;
}

type t = {
  objects : (int, obj) Hashtbl.t;
  mutable next_handle : int;
  cursors : (string, int ref) Hashtbl.t;
      (* per kind: no object of the kind below this handle is active *)
}

let create () = { objects = Hashtbl.create 64; next_handle = 1; cursors = Hashtbl.create 8 }

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

(* Handles only grow and no object becomes active again, so a handle
   the cursor has passed never needs a second look. *)
let first_of_kind t kind =
  let cursor =
    match Hashtbl.find_opt t.cursors kind with
    | Some c -> c
    | None ->
      let c = ref 1 in
      Hashtbl.replace t.cursors kind c;
      c
  in
  let rec scan h =
    if h >= t.next_handle then begin
      cursor := h;
      None
    end
    else
      match Hashtbl.find_opt t.objects h with
      | Some obj when obj.state = Active && obj.kind = kind ->
        cursor := h;
        Some obj
      | _ -> scan (h + 1)
  in
  scan !cursor

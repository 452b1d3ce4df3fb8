open Eof_hw

type file = {
  path : string;
  mutable addr : int;  (** heap payload backing the contents *)
  mutable capacity : int;
  mutable size : int;
  mutable generation : int;  (** bumped on unlink to stale old fds *)
}

type fd_state = {
  file : file;
  fd_generation : int;
  writable : bool;
  mutable offset : int;
  mutable closed : bool;
}

type fd = int

type t = {
  heap : Heap.t;
  mem : Memory.t;
  max_files : int;
  max_file_bytes : int;
  mutable files : file list;
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
}

let create ~heap ~max_files ~max_file_bytes =
  {
    heap;
    mem = Heap.memory heap;
    max_files;
    max_file_bytes;
    files = [];
    fds = Hashtbl.create 16;
    next_fd = 3; (* 0-2 are the traditional std streams *)
  }

let find_file t path = List.find_opt (fun f -> f.path = path && f.generation >= 0) t.files

let open_ t ~path ~create ~write =
  if path = "" || String.length path > 64 then Error Kerr.einval
  else begin
    let file =
      match find_file t path with
      | Some f -> Ok f
      | None ->
        if not create then Error Kerr.enoent
        else if List.length t.files >= t.max_files then Error Kerr.enospc
        else begin
          let f = { path; addr = 0; capacity = 0; size = 0; generation = 0 } in
          t.files <- f :: t.files;
          Ok f
        end
    in
    match file with
    | Error e -> Error e
    | Ok file ->
      let fd = t.next_fd in
      t.next_fd <- fd + 1;
      Hashtbl.replace t.fds fd
        {
          file;
          fd_generation = file.generation;
          writable = write;
          offset = 0;
          closed = false;
        };
      Ok fd
  end

let lookup t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Kerr.einval
  | Some st when st.closed -> Error Kerr.einval
  | Some st when st.fd_generation <> st.file.generation -> Error Kerr.enoent
  | Some st -> Ok st

let grow t file needed =
  if needed <= file.capacity then Ok ()
  else begin
    let new_capacity = max 32 (max needed (file.capacity * 2)) in
    match Heap.alloc t.heap new_capacity with
    | None -> Error Kerr.enospc
    | Some addr ->
      if file.capacity > 0 then begin
        let old = Memory.read_bytes t.mem ~addr:file.addr ~len:file.size in
        Memory.write_bytes t.mem ~addr old;
        ignore (Heap.free t.heap file.addr : (unit, string) result)
      end;
      file.addr <- addr;
      file.capacity <- new_capacity;
      Ok ()
  end

let write t fd data =
  match lookup t fd with
  | Error e -> Error e
  | Ok st ->
    if not st.writable then Error Kerr.eperm
    else begin
      let file = st.file in
      let needed = file.size + String.length data in
      if needed > t.max_file_bytes then Error Kerr.enospc
      else
        match grow t file needed with
        | Error e -> Error e
        | Ok () ->
          Memory.write_bytes t.mem ~addr:(file.addr + file.size) (Bytes.of_string data);
          file.size <- needed;
          Ok (String.length data)
    end

let read t fd ~max =
  match lookup t fd with
  | Error e -> Error e
  | Ok st ->
    let file = st.file in
    let available = file.size - st.offset in
    let n = min (Stdlib.max 0 max) (Stdlib.max 0 available) in
    if n = 0 then Ok ""
    else begin
      let data = Memory.read_bytes t.mem ~addr:(file.addr + st.offset) ~len:n in
      st.offset <- st.offset + n;
      Ok (Bytes.unsafe_to_string data)
    end

let close t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Kerr.einval
  | Some st when st.closed -> Error Kerr.einval
  | Some st ->
    st.closed <- true;
    Ok ()

let unlink t ~path =
  match find_file t path with
  | None -> Error Kerr.enoent
  | Some file ->
    if file.capacity > 0 then ignore (Heap.free t.heap file.addr : (unit, string) result);
    file.generation <- file.generation + 1;
    file.size <- 0;
    file.capacity <- 0;
    t.files <- List.filter (fun f -> f != file) t.files;
    Ok ()

let size_of t ~path = Option.map (fun f -> f.size) (find_file t path)

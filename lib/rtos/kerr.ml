let ok = 0L

let einval = -22L

let enomem = -12L

let enoent = -2L

let etimedout = -110L

let ebusy = -16L

let eagain = -11L

let enospc = -28L

let eperm = -1L

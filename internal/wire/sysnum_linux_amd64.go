//go:build linux && amd64

package wire

// sysRECVMMSG is a syscall number the stdlib syscall package predates: its
// generated tables stop before the mmsg calls. The value is from the
// kernel's arch/x86/entry/syscalls/syscall_64.tbl and is ABI-frozen.
const sysRECVMMSG = 299

//go:build linux && arm64

package wire

// sysRECVMMSG is a syscall number the stdlib syscall package predates; the
// value is from the kernel's generic syscall table (asm-generic/unistd.h)
// used by arm64 and is ABI-frozen.
const sysRECVMMSG = 243

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill cmd's process when the benchmark
// process dies, so an interrupted run leaves no server or fit behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

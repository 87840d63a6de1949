package main

import (
	"os/exec"
	"syscall"
)

// killWithParent has the kernel kill the child when this process dies
// first, so a benchmark killed on a timeout leaves no workload running.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

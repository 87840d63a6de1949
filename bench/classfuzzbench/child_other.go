//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op where the kernel offers no parent-death
// signal.
func killWithParent(*exec.Cmd) {}

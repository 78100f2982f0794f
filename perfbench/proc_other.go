//go:build !linux

package main

import "os/exec"

// dieWithParent needs Linux's parent-death signal; elsewhere an interrupted
// run may leave its children running.
func dieWithParent(*exec.Cmd) {}

//go:build !amd64

package main

// l3Bytes is unknown (0) off amd64.
func l3Bytes() int64 { return 0 }

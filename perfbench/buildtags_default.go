//go:build !simd

package main

// buildTags records the build tags the binary was built with.
const buildTags = ""

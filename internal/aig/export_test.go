package aig

// Graft exposes graft to the external-package benchmarks, which cannot
// live in package aig because workloads/aes imports it.
var Graft = graft

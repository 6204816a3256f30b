package sim

// RandomGraphAndPlacement hands the random-graph fixture to the external
// test package, which may import gen and metis (both import sim).
var RandomGraphAndPlacement = randomGraphAndPlacement

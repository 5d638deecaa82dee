package atpg

// CheckFrontierWalk exposes the frontier oracle walk to the external
// test package, which can import seqatpg to build unrolled models.
var CheckFrontierWalk = checkFrontierWalk

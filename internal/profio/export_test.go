package profio

// The reference encoder, for the external test package (which may import
// the packages that import profio).
var ReferenceWriteProfile = referenceWriteProfile

// SameImage compares an encoder image with the reference encoder's, the
// way the package's own oracle tests do.
var SameImage = sameImage

package profio

// The reference encoder, for the external test package (which may import
// the packages that import profio).
var ReferenceWriteProfile = referenceWriteProfile

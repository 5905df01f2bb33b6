package langid

// All returns every Language value in declaration order.
func All() []Language {
	out := make([]Language, numLanguages)
	for i := range out {
		out[i] = Language(i)
	}
	return out
}

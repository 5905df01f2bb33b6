package langid

// Language identifies one of the languages the paper's Table II reports.
type Language int

// Languages recognized by the classifier: the paper's top-15 plus English
// (the default for plain Latin labels) and Other.
const (
	Other Language = iota
	English
	Chinese
	Japanese
	Korean
	German
	Turkish
	Thai
	Swedish
	Spanish
	French
	Finnish
	Russian
	Hungarian
	Arabic
	Danish
	Persian
	Vietnamese
	Greek
	Hebrew
)

// numLanguages is the count of Language values, for array sizing.
const numLanguages = int(Hebrew) + 1

var languageNames = [numLanguages]string{
	Other:      "Other",
	English:    "English",
	Chinese:    "Chinese",
	Japanese:   "Japanese",
	Korean:     "Korean",
	German:     "German",
	Turkish:    "Turkish",
	Thai:       "Thai",
	Swedish:    "Swedish",
	Spanish:    "Spanish",
	French:     "French",
	Finnish:    "Finnish",
	Russian:    "Russian",
	Hungarian:  "Hungarian",
	Arabic:     "Arabic",
	Danish:     "Danish",
	Persian:    "Persian",
	Vietnamese: "Vietnamese",
	Greek:      "Greek",
	Hebrew:     "Hebrew",
}

// String returns the English name of the language.
func (l Language) String() string {
	if l >= 0 && int(l) < numLanguages {
		return languageNames[l]
	}
	return "Other"
}

// EastAsian reports whether the language is one the paper groups as
// east-Asian for Finding 1 (Chinese, Japanese, Korean, Thai).
func (l Language) EastAsian() bool {
	switch l {
	case Chinese, Japanese, Korean, Thai:
		return true
	}
	return false
}

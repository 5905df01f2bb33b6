package zonegen

import (
	"strconv"
	"unicode/utf8"

	"idnlab/internal/langid"
	"idnlab/internal/simrand"
)

// Per-language synthetic label generation. Labels are built from curated
// character and syllable pools so that the langid classifier recovers the
// intended language — the calibration tests assert Table II is reproduced
// from classifier output, not from ground truth.

// Character pools for script-decisive languages.
var (
	hanPool = []rune("的一是不了人我在有他这中大来上国个到说们为子和你地出道" +
		"也时年得就那要下以生会自着去之过家学对可她里后小么心多天而能好都然没日于起还发成事只作当想看文无开手十用主行方又如前所本见经头面公同三已老从动两长知民样现分将外但身些与高意进把法此实回二理美点月明器物" +
		"波色娱乐城富贵金银财宝福禄寿喜旺隆昌盛泰安康宁和顺利达通发城市京沪深广州杭南北重庆成都武汉西安邮箱汽车商店网络信息科技服务贸易投资房产旅游酒店餐饮医疗教育文化体育娱音乐游戏电影购物支付银行保险证券基金彩票棋牌")
	hiraganaPool = []rune("あいうえおかきくけこさしすせそたちつてとなにぬねのはひふへほまみむめもやゆよらりるれろわをんがぎぐげござじずぜぞだぢづでどばびぶべぼ")
	katakanaPool = []rune("アイウエオカキクケコサシスセソタチツテトナニヌネノハヒフヘホマミムメモヤユヨラリルレロワヲンガギグゲゴザジズゼゾダヂヅデドバビブベボ")
	kanjiLight   = []rune("日本語東京大阪名古屋京都神戸福岡店舗会社情報旅行温泉寿司花火祭")
	hangulPool   = []rune("가나다라마바사아자차카타파하거너더러머버서어저고노도로모보소오조구누두루무부수우주그는들르므브스으즈기니디리미비시이지한국서울부산대구인천광주대전울산도메인쇼핑몰게임음악여행호텔학교병원은행보험증권카지노")
	thaiPool     = []rune("กขคงจฉชซญดตถทธนบปผพฟภมยรลวศษสหอฮะาิีึืุูเแโใไ")
	cyrillicPool = []rune("абвгдежзиклмнопрстуфхцчшщыэюя")
	arabicPool   = []rune("ابتثجحخدذرزسشصضطظعغفقكلمنهوي")
	persianExtra = []rune("پچژگکی")
)

// Latin syllable pools per language, rich in characteristic letters so
// the naive-Bayes classifier separates them.
var latinSyllables = map[langid.Language][]string{
	langid.German:    {"schön", "straße", "grüß", "münch", "bücher", "käse", "über", "größe", "weiß", "fuß", "mädchen", "glück", "zwölf", "hört", "lösung", "prüf"},
	langid.Turkish:   {"alışveriş", "güzel", "çiçek", "şehir", "yıldız", "öğrenci", "ışık", "ağaç", "kuş", "türk", "çarşı", "düğün"},
	langid.Swedish:   {"försälj", "sjö", "kött", "läkare", "måndag", "björn", "höst", "väg", "grön", "själv", "människ", "kärlek"},
	langid.Spanish:   {"señor", "niño", "año", "montaña", "corazón", "educación", "mañana", "pequeño", "español", "cañón", "diseño"},
	langid.French:    {"château", "crêpe", "forêt", "noël", "café", "société", "déjà", "élève", "hôtel", "août", "cœur", "fenêtre"},
	langid.Finnish:   {"mäki", "järvi", "yö", "työ", "sähkö", "pöytä", "hyvä", "kesä", "syksy", "tyttö", "metsä", "käsi"},
	langid.Hungarian: {"gyönyörű", "szöveg", "könyv", "tűz", "gyerek", "hölgy", "örök", "út", "fő", "kör", "zöld", "győr"},
	langid.Danish:    {"købn", "smørre", "brød", "sø", "grøn", "æble", "høj", "år", "blå", "rød", "først", "kærlig"},
	langid.English:   {"shop", "online", "cloud", "store", "news", "game", "tech", "web", "best", "free", "smart", "home"},
}

// opportunistic portfolio themes (Table III).
var (
	cityNames = []string{"重庆", "成都", "昆明", "贵阳", "南宁", "拉萨", "西昌", "绵阳", "泸州", "宜宾",
		"乐山", "自贡", "攀枝花", "德阳", "遂宁", "内江", "广元", "达州", "雅安", "巴中"}
	gamblingWords = []string{"娱乐城", "博彩", "彩票网", "棋牌", "赌场", "百家乐", "六合彩", "老虎机", "轮盘", "体彩"}
	shoppingWords = []string{"商城", "购物网", "特卖", "折扣店", "精品店", "批发网", "团购", "秒杀", "优选", "好货"}
	shortWords    = []string{"好", "美", "爱", "乐", "福", "发", "赢", "旺", "金", "银"}
	citySuffixes  = []string{"房产", "旅游", "招聘", "美食"}
)

// nameGen synthesizes unique labels.
type nameGen struct {
	src  *simrand.Source
	seen map[string]struct{}
	// next is, per label that has collided, the first numeric suffix not
	// yet known to be taken. seen only grows, so every smaller suffix stays
	// taken and a collision resumes where the last one for that label
	// stopped: the answer is the one a probe from 2 would find.
	next map[string]int
	// lookups counts membership tests of seen; the linearity test reads it.
	lookups int
}

// newNameGen sizes the census for the labels the caller expects to draw.
func newNameGen(src *simrand.Source, labels int) *nameGen {
	return &nameGen{src: src, seen: make(map[string]struct{}, labels), next: make(map[string]int)}
}

// take registers label and reports whether it was free.
func (g *nameGen) take(label string) bool {
	g.lookups++
	if _, dup := g.seen[label]; dup {
		return false
	}
	g.seen[label] = struct{}{}
	return true
}

// unique registers a candidate label, de-duplicating with a numeric
// suffix when needed. Uniqueness is per-generator (one per TLD namespace
// would be stricter, but global uniqueness is simpler and also valid).
func (g *nameGen) unique(label string) string {
	if g.take(label) {
		return label
	}
	i := g.next[label]
	if i < 2 {
		i = 2
	}
	for ; ; i++ {
		if cand := label + strconv.Itoa(i); g.take(cand) {
			g.next[label] = i + 1
			return cand
		}
	}
}

// pick returns n random runes from pool.
func (g *nameGen) pick(pool []rune, n int) string {
	var buf [32]byte // the longest label drawn is 9 three-byte runes
	b := buf[:0]
	for i := 0; i < n; i++ {
		b = utf8.AppendRune(b, pool[g.src.Intn(len(pool))])
	}
	return string(b)
}

// Label synthesizes a fresh Unicode label in the given language.
func (g *nameGen) Label(lang langid.Language) string {
	var cand string
	switch lang {
	case langid.Chinese:
		cand = g.pick(hanPool, 2+g.src.Intn(3))
	case langid.Japanese:
		// Kana-bearing so the classifier resolves Japanese vs Chinese.
		switch g.src.Intn(3) {
		case 0:
			cand = g.pick(hiraganaPool, 3+g.src.Intn(3))
		case 1:
			cand = g.pick(katakanaPool, 3+g.src.Intn(3))
		default:
			cand = g.pick(kanjiLight, 1+g.src.Intn(2)) + g.pick(hiraganaPool, 2)
		}
	case langid.Korean:
		cand = g.pick(hangulPool, 2+g.src.Intn(4))
	case langid.Thai:
		cand = g.pick(thaiPool, 3+g.src.Intn(4))
	case langid.Russian:
		cand = g.pick(cyrillicPool, 4+g.src.Intn(6))
	case langid.Arabic:
		cand = g.pick(arabicPool, 3+g.src.Intn(5))
	case langid.Persian:
		cand = g.pick(arabicPool, 2+g.src.Intn(3)) + g.pick(persianExtra, 1+g.src.Intn(2))
	default:
		sylls, ok := latinSyllables[lang]
		if !ok {
			sylls = latinSyllables[langid.English]
		}
		cand = sylls[g.src.Intn(len(sylls))]
		if g.src.Bool(0.6) {
			cand += sylls[g.src.Intn(len(sylls))]
		}
		cand = g.ensureNonASCII(cand)
	}
	return g.unique(cand)
}

// ThemedLabel synthesizes a label for an opportunistic portfolio theme.
func (g *nameGen) ThemedLabel(theme string) string {
	var cand string
	switch theme {
	case "city":
		cand = cityNames[g.src.Intn(len(cityNames))]
		if g.src.Bool(0.5) {
			cand += citySuffixes[g.src.Intn(len(citySuffixes))]
		}
	case "gambling":
		cand = g.pick(hanPool[:60], 1) + gamblingWords[g.src.Intn(len(gamblingWords))]
	case "shopping":
		cand = g.pick(hanPool[:60], 1) + shoppingWords[g.src.Intn(len(shoppingWords))]
	default: // shortword
		cand = shortWords[g.src.Intn(len(shortWords))] + shortWords[g.src.Intn(len(shortWords))]
	}
	return g.unique(cand)
}

// asciiAccents decorates one letter so Latin-script labels qualify as
// IDNs (a registered IDN must contain at least one non-ASCII code point).
var asciiAccents = map[rune][]rune{
	'a': []rune("àáâä"), 'e': []rune("èéêë"), 'o': []rune("òóôö"),
	'u': []rune("ùúûü"), 'i': []rune("ìíî"), 'c': []rune("ç"),
	'n': []rune("ñ"), 's': []rune("š"), 'z': []rune("ž"), 'y': []rune("ý"),
}

// ensureNonASCII replaces the first accentable letter when the candidate
// is pure ASCII.
func (g *nameGen) ensureNonASCII(cand string) string {
	for _, r := range cand {
		if r >= 0x80 {
			return cand
		}
	}
	runes := []rune(cand)
	for i, r := range runes {
		if opts, ok := asciiAccents[r]; ok {
			runes[i] = opts[g.src.Intn(len(opts))]
			return string(runes)
		}
	}
	// No accentable letter: append one.
	return cand + "é"
}

// ASCIILabel synthesizes a non-IDN label.
func (g *nameGen) ASCIILabel() string {
	en := latinSyllables[langid.English]
	cand := en[g.src.Intn(len(en))] + en[g.src.Intn(len(en))]
	if g.src.Bool(0.3) {
		cand += strconv.Itoa(g.src.Intn(100))
	}
	return g.unique(cand)
}

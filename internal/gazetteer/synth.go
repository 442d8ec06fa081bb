package gazetteer

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/geo"
)

// Config parameterises the synthetic gazetteer.
type Config struct {
	// Names is the number of distinct generated names (seeded anchor and
	// Table-1 names come on top). The default used by the experiment
	// harness is 20000, which yields roughly 150k-200k references.
	Names int
	// Seed makes generation deterministic.
	Seed int64
}

// table1Seeds reproduces the paper's Table 1 exactly: the ten most
// ambiguous geographic names in GeoNames with their reference counts.
var table1Seeds = []struct {
	name    string
	count   int
	feature FeatureClass
}{
	{"First Baptist Church", 2382, FeatureChurch},
	{"The Church of Jesus Christ of Latter Day Saints", 1893, FeatureChurch},
	{"San Antonio", 1561, FeatureCity},
	{"Church of Christ", 1558, FeatureChurch},
	{"Mill Creek", 1530, FeatureStream},
	{"Spring Creek", 1486, FeatureStream},
	{"San José", 1366, FeatureCity},
	{"Dry Creek", 1271, FeatureStream},
	{"First Presbyterian Church", 1229, FeatureChurch},
	{"Santa Rosa", 1205, FeatureCity},
}

// anchorCity is a real, well-known city seeded with its true location so
// that examples and disambiguation tests behave like the paper's worked
// scenarios (Berlin, Paris, Cairo …).
type anchorCity struct {
	name       string
	lat, lon   float64
	country    string
	population int64
	// extraRefs is how many additional same-named references to scatter
	// (the paper: Paris has 62 references, Cairo more than ten).
	extraRefs int
}

var anchorCities = []anchorCity{
	{"Berlin", 52.5200, 13.4050, "DE", 3_700_000, 8},
	{"Paris", 48.8566, 2.3522, "FR", 2_100_000, 61}, // 62 references in total
	{"Cairo", 30.0444, 31.2357, "EG", 9_500_000, 11},
	{"London", 51.5074, -0.1278, "GB", 8_900_000, 15},
	{"Amsterdam", 52.3676, 4.9041, "NL", 870_000, 6},
	{"Enschede", 52.2215, 6.8937, "NL", 160_000, 0},
	{"Madrid", 40.4168, -3.7038, "ES", 3_200_000, 5},
	{"Rome", 41.9028, 12.4964, "IT", 2_800_000, 9},
	{"Dar es Salaam", -6.7924, 39.2083, "TZ", 4_300_000, 0},
	{"Nairobi", -1.2921, 36.8219, "KE", 4_400_000, 0},
	{"Lagos", 6.5244, 3.3792, "NG", 14_800_000, 2},
	{"Sydney", -33.8688, 151.2093, "AU", 5_300_000, 4},
	{"Toronto", 43.6532, -79.3832, "CA", 2_900_000, 3},
	{"Mumbai", 19.0760, 72.8777, "IN", 12_400_000, 0},
	{"Beijing", 39.9042, 116.4074, "CN", 21_500_000, 0},
	{"São Paulo", -23.5505, -46.6333, "BR", 12_300_000, 1},
	{"Mexico City", 19.4326, -99.1332, "MX", 9_200_000, 0},
	{"Buenos Aires", -34.6037, -58.3816, "AR", 3_100_000, 2},
	{"Manila", 14.5995, 120.9842, "PH", 1_800_000, 1},
	{"New York", 40.7128, -74.0060, "US", 8_400_000, 2},
	{"Springfield", 39.7817, -89.6501, "US", 114_000, 33}, // famously ambiguous
}

// Synthesize builds a calibrated synthetic gazetteer. The generated
// name→reference-count distribution matches the paper's Figure 2 shares
// (54% single-reference, 12% double, 5% triple, 29% four-or-more) with a
// power-law tail (Figure 1), and the paper's Table 1 names are seeded with
// their exact counts.
func Synthesize(cfg Config) (*Gazetteer, error) {
	if cfg.Names < 0 {
		return nil, fmt.Errorf("gazetteer: negative name count %d", cfg.Names)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := New()
	used := make(map[string]bool)

	// 1. Anchor cities with their true locations.
	for _, a := range anchorCities {
		e := Entry{
			Name:       a.name,
			Location:   geo.Point{Lat: a.lat, Lon: a.lon},
			Feature:    FeatureCity,
			Country:    a.country,
			Population: a.population,
		}
		if _, err := g.Add(e); err != nil {
			return nil, err
		}
		used[strings.ToLower(a.name)] = true
		for i := 0; i < a.extraRefs; i++ {
			c := pickCountry(rng)
			if _, err := g.Add(Entry{
				Name:       a.name,
				Location:   randomPointIn(rng, c.Box),
				Feature:    FeatureCity,
				Country:    c.Code,
				Population: int64(rng.Intn(40000)),
			}); err != nil {
				return nil, err
			}
		}
	}

	// 2. Table 1 names with their exact reference counts.
	for _, seed := range table1Seeds {
		used[strings.ToLower(seed.name)] = true
		for i := 0; i < seed.count; i++ {
			// GeoNames' hyper-ambiguous names are overwhelmingly US
			// features; mirror that (~85% US).
			var c Country
			if rng.Float64() < 0.85 {
				c, _ = CountryByCode("US")
			} else {
				c = pickCountry(rng)
			}
			pop := int64(0)
			if seed.feature == FeatureCity {
				pop = int64(rng.Intn(80000))
			}
			if _, err := g.Add(Entry{
				Name:       seed.name,
				Location:   randomPointIn(rng, c.Box),
				Feature:    seed.feature,
				Country:    c.Code,
				Population: pop,
			}); err != nil {
				return nil, err
			}
		}
	}

	// 3. Random names with calibrated ambiguity degrees.
	for n := 0; n < cfg.Names; n++ {
		name, feature := generateName(rng, used)
		degree := sampleDegree(rng)
		var alt []string
		if rng.Float64() < 0.05 {
			alt = []string{misspellName(rng, name)}
		}
		for i := 0; i < degree; i++ {
			c := pickCountry(rng)
			pop := int64(0)
			if feature == FeatureCity {
				pop = zipfPopulation(rng)
			}
			e := Entry{
				Name:       name,
				AltNames:   alt,
				Location:   randomPointIn(rng, c.Box),
				Feature:    feature,
				Country:    c.Code,
				Population: pop,
			}
			if _, err := g.Add(e); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// sampleDegree draws a reference count per the paper's Figure 2:
// P(1)=0.54, P(2)=0.12, P(3)=0.05, P(>=4)=0.29 with a truncated power-law
// tail over [4, 1000] (exponent 2.2). The cap keeps random names below the
// seeded Table 1 counts so the top 10 stay exact.
func sampleDegree(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.54:
		return 1
	case u < 0.66:
		return 2
	case u < 0.71:
		return 3
	default:
		return samplePowerLaw(rng, 4, 1000, 2.2)
	}
}

// samplePowerLaw draws an integer in [min, max] with P(d) proportional to
// d^-alpha via inverse-CDF sampling of the continuous Pareto and rounding
// down.
func samplePowerLaw(rng *rand.Rand, min, max int, alpha float64) int {
	u := rng.Float64()
	a, b := float64(min), float64(max)+1
	oneMinus := 1 - alpha
	x := math.Pow(math.Pow(a, oneMinus)+u*(math.Pow(b, oneMinus)-math.Pow(a, oneMinus)), 1/oneMinus)
	d := int(x)
	if d < min {
		d = min
	}
	if d > max {
		d = max
	}
	return d
}

func zipfPopulation(rng *rand.Rand) int64 {
	return int64(samplePowerLaw(rng, 200, 2_000_000, 1.8))
}

func pickCountry(rng *rand.Rand) Country {
	var total float64
	for _, c := range Countries {
		total += c.Weight
	}
	u := rng.Float64() * total
	for _, c := range Countries {
		u -= c.Weight
		if u <= 0 {
			return c
		}
	}
	return Countries[len(Countries)-1]
}

func randomPointIn(rng *rand.Rand, b geo.BBox) geo.Point {
	return geo.Point{
		Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
	}
}

// Name-pattern vocabulary. The patterns intentionally mirror GeoNames'
// most ambiguous families: churches, creeks, saints, plus syllabic town
// names.
var (
	denominations = []string{"Baptist", "Methodist", "Presbyterian", "Lutheran", "Pentecostal", "Episcopal", "Catholic", "Reformed", "Adventist", "Evangelical"}
	ordinals      = []string{"First", "Second", "Third", "New", "Old", "United", "Grace", "Faith", "Trinity", "Zion"}
	hydroSuffix   = []string{"Creek", "Spring", "Lake", "River", "Falls", "Brook", "Pond", "Run"}
	hydroPrefix   = []string{"Mill", "Dry", "Clear", "Rock", "Sand", "Cedar", "Pine", "Oak", "Willow", "Bear", "Wolf", "Eagle", "Deer", "Cold", "Muddy", "Stony", "Long", "Crooked", "Silver", "Turkey"}
	saintPrefix   = []string{"San", "Santa", "Saint", "St"}
	saintNames    = []string{"Antonio", "José", "Rosa", "Maria", "Juan", "Pedro", "Miguel", "Isabel", "Clara", "Francisco", "Carlos", "Rita", "Lucia", "Pablo", "Teresa", "Elena", "Ana", "Luis", "Marta", "Ramon"}
	mountainWords = []string{"Mount", "Peak", "Ridge", "Hill", "Butte", "Mesa"}
	syllOnset     = []string{"b", "br", "d", "dr", "f", "g", "gr", "h", "k", "kl", "l", "m", "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z", "ch", "sh", "th"}
	syllNucleus   = []string{"a", "e", "i", "o", "u", "ai", "ea", "ou", "ie", "oo"}
	syllCoda      = []string{"", "n", "r", "l", "s", "m", "nd", "rt", "st", "ck", "ng"}
	townSuffix    = []string{"", "", "", "ville", "burg", "ton", "field", "ford", "ham", "stadt", "dorf", "grad", "pur", "abad"}
)

// generateName produces a fresh distinct name and its feature class.
func generateName(rng *rand.Rand, used map[string]bool) (string, FeatureClass) {
	for attempt := 0; ; attempt++ {
		var name string
		var feature FeatureClass
		switch p := rng.Float64(); {
		case p < 0.12: // church family
			switch rng.Intn(3) {
			case 0:
				name = ordinals[rng.Intn(len(ordinals))] + " " + denominations[rng.Intn(len(denominations))] + " Church"
			case 1:
				name = "Church of " + saintNames[rng.Intn(len(saintNames))]
			default:
				name = denominations[rng.Intn(len(denominations))] + " Chapel"
			}
			feature = FeatureChurch
		case p < 0.28: // hydrographic family
			name = hydroPrefix[rng.Intn(len(hydroPrefix))] + " " + hydroSuffix[rng.Intn(len(hydroSuffix))]
			feature = FeatureStream
		case p < 0.38: // saint family
			name = saintPrefix[rng.Intn(len(saintPrefix))] + " " + saintNames[rng.Intn(len(saintNames))]
			feature = FeatureCity
		case p < 0.44: // mountains
			name = mountainWords[rng.Intn(len(mountainWords))] + " " + titleCase(randomSyllabic(rng, 2))
			feature = FeatureMountain
		default: // syllabic towns
			name = titleCase(randomSyllabic(rng, 2+rng.Intn(2))) + townSuffix[rng.Intn(len(townSuffix))]
			feature = FeatureCity
		}
		key := strings.ToLower(name)
		if !used[key] {
			used[key] = true
			return name, feature
		}
		if attempt > 4 {
			// Force uniqueness with an extra syllable.
			name = name + " " + titleCase(randomSyllabic(rng, 2))
			key = strings.ToLower(name)
			if !used[key] {
				used[key] = true
				return name, FeatureCity
			}
		}
	}
}

func randomSyllabic(rng *rand.Rand, syllables int) string {
	var sb strings.Builder
	for i := 0; i < syllables; i++ {
		sb.WriteString(syllOnset[rng.Intn(len(syllOnset))])
		sb.WriteString(syllNucleus[rng.Intn(len(syllNucleus))])
		if i == syllables-1 || rng.Float64() < 0.3 {
			sb.WriteString(syllCoda[rng.Intn(len(syllCoda))])
		}
	}
	return sb.String()
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// misspellName produces a plausible one-edit variant used as an alternate
// name, exercising fuzzy lookup.
func misspellName(rng *rand.Rand, name string) string {
	runes := []rune(name)
	if len(runes) < 4 {
		return name + "e"
	}
	i := 1 + rng.Intn(len(runes)-2)
	switch rng.Intn(3) {
	case 0: // swap adjacent
		runes[i], runes[i+1] = runes[i+1], runes[i]
	case 1: // drop
		runes = append(runes[:i], runes[i+1:]...)
	default: // double
		runes = append(runes[:i+1], runes[i:]...)
	}
	return string(runes)
}

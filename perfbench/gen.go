package main

import (
	"bytes"
	"strconv"

	"repro/internal/bench"
)

// The benchmark's own seeded generators. The repository's dataset
// generators hard-code their seeds, so the benchmark draws its DMOZ shapes
// here, at the same rates (newsGroup 35%, editor 20%, 0–3 links per Topic,
// 1–3 ExternalPages per group), from the --seed it is given. The program
// under test receives only the bytes.

// rng is splitmix64: small, fast, and identical on every platform.
type rng struct{ s uint64 }

// newRNG derives an independent stream per purpose from one seed, so adding
// a draw for one input never shifts another input.
func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// name is a short pronounceable token.
func (r *rng) name() string {
	const consonants, vowels = "bcdfgklmnprstv", "aeiou"
	n := 2 + r.intn(3)
	out := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, consonants[r.intn(len(consonants))], vowels[r.intn(len(vowels))])
	}
	return string(out)
}

// sentence is filler prose of about approx bytes. One sentence in eight
// carries an ampersand, so serialization exercises escaping.
func (r *rng) sentence(approx int) string {
	var b []byte
	for len(b) < approx {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, r.name()...)
	}
	if r.intn(8) == 0 {
		b = append(b, " &amp; co"...)
	}
	return string(b)
}

func leaf(b *bytes.Buffer, name, text string) {
	b.WriteString("<" + name + ">" + text + "</" + name + ">")
}

// topic writes one DMOZ structure Topic record.
func (r *rng) topic(b *bytes.Buffer, catid int) {
	b.WriteString("<Topic>")
	leaf(b, "catid", strconv.Itoa(catid))
	if r.chance(35) {
		leaf(b, "newsGroup", "news."+r.name())
	}
	leaf(b, "Title", r.name())
	if r.chance(20) {
		leaf(b, "editor", r.name())
	}
	for l := r.intn(4); l > 0; l-- {
		leaf(b, "link", "http://"+r.name()+".example/"+r.name())
	}
	b.WriteString("</Topic>\n")
}

// dmozStructure is an RDF document of topics Topic records.
func dmozStructure(r *rng, topics int) []byte {
	var b bytes.Buffer
	b.WriteString("<RDF>\n")
	for i := 0; i < topics; i++ {
		r.topic(&b, i)
	}
	b.WriteString("</RDF>\n")
	return b.Bytes()
}

// dmozContent interleaves Topic records with the ExternalPage records that
// carry the content dump's text; each page's topic child names its group.
func dmozContent(r *rng, groups int) []byte {
	var b bytes.Buffer
	b.WriteString("<RDF>\n")
	for i := 0; i < groups; i++ {
		b.WriteString("<Topic>")
		leaf(&b, "catid", strconv.Itoa(i))
		if r.chance(35) {
			leaf(&b, "newsGroup", "news."+r.name())
		}
		leaf(&b, "Title", r.name())
		if r.chance(20) {
			leaf(&b, "editor", r.name())
		}
		b.WriteString("</Topic>\n")
		for p := 1 + r.intn(3); p > 0; p-- {
			b.WriteString("<ExternalPage>")
			leaf(&b, "Title", r.sentence(20))
			leaf(&b, "Description", r.sentence(120))
			leaf(&b, "topic", strconv.Itoa(i))
			b.WriteString("</ExternalPage>\n")
		}
	}
	b.WriteString("</RDF>\n")
	return b.Bytes()
}

// dmozDocs returns n small DMOZ structure documents of the given Topic
// count each, for the per-document loops.
func dmozDocs(r *rng, n, topics int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = dmozStructure(r, topics)
	}
	return docs
}

// sdiQueries draws n distinct subscriptions from the SDI query space
// (bench.SDIQueries cycles through all of it when asked for more than the
// 310 queries it holds).
func sdiQueries(r *rng, n int) []string {
	space := bench.SDIQueries(4096)
	seen := map[string]bool{}
	var distinct []string
	for _, q := range space {
		if !seen[q] {
			seen[q] = true
			distinct = append(distinct, q)
		}
	}
	for i := len(distinct) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		distinct[i], distinct[j] = distinct[j], distinct[i]
	}
	return distinct[:min(n, len(distinct))]
}

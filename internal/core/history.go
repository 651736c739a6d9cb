package core

// History is a fixed-capacity ring of per-period consumption samples used
// by the estimation stage.
type History struct {
	buf  []int64
	head int // index of the oldest sample
	n    int // number of valid samples
}

// NewHistory creates a history holding up to capacity samples.
func NewHistory(capacity int) *History {
	if capacity < 2 {
		capacity = 2
	}
	return &History{buf: make([]int64, capacity)}
}

// Push appends a sample, evicting the oldest when full.
func (h *History) Push(v int64) {
	if h.n < len(h.buf) {
		h.buf[(h.head+h.n)%len(h.buf)] = v
		h.n++
		return
	}
	h.buf[h.head] = v
	h.head = (h.head + 1) % len(h.buf)
}

// Len returns the number of stored samples.
func (h *History) Len() int { return h.n }

// At returns the i-th sample, oldest first.
func (h *History) At(i int) int64 {
	if i < 0 || i >= h.n {
		panic("core: history index out of range")
	}
	return h.buf[(h.head+i)%len(h.buf)]
}

// Mean returns the average of the stored samples.
func (h *History) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum int64
	for i := 0; i < h.n; i++ {
		sum += h.At(i)
	}
	return float64(sum) / float64(h.n)
}

// Trend returns the consumption trend of Eq. 3: the least-squares slope of
// the samples against their index (cycles per period). With fewer than two
// samples the trend is zero.
//
// Note on Eq. 3 as printed: the paper subtracts S_n = n(n+1)/2 from the
// index x, which makes the denominator the sum of (x − S_n)²; dividing the
// standard covariance numerator by that denominator is exactly the
// ordinary least-squares slope when S_n/n is the index mean x̄ = (n+1)/2.
// We implement the standard least-squares slope, which is what the
// formula computes up to that notational shortcut.
func (h *History) Trend() float64 {
	n := h.n
	if n < 2 {
		return 0
	}
	// x values are 1..n (as in the paper), y values the samples.
	xMean := float64(n+1) / 2
	yMean := h.Mean()
	var num, den float64
	for i := 0; i < n; i++ {
		dx := float64(i+1) - xMean
		num += dx * (float64(h.At(i)) - yMean)
		den += dx * dx
	}
	if den == 0 {
		return 0
	}
	return num / den
}

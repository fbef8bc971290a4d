package matrix

// MinMaxScaler rescales each column of a matrix to [0, 1], implementing
// Eq. 3 of the paper: B1(i,j) = (BB1(i,j) - min_j) / (max_j - min_j).
//
// The scaler remembers the per-column minimum and maximum observed at Fit
// time so that feature vectors seen later (query examples, newly ingested
// shots) can be transformed consistently with the training corpus.
type MinMaxScaler struct {
	min, max []float64
	fitted   bool
}

// Fit computes the per-column minimum and maximum of m. A matrix with zero
// rows leaves the scaler unfitted.
func (s *MinMaxScaler) Fit(m *Dense) {
	if m.Rows() == 0 {
		s.fitted = false
		return
	}
	cols := m.Cols()
	s.min = make([]float64, cols)
	s.max = make([]float64, cols)
	copy(s.min, m.Row(0))
	copy(s.max, m.Row(0))
	for i := 1; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			if v < s.min[j] {
				s.min[j] = v
			}
			if v > s.max[j] {
				s.max[j] = v
			}
		}
	}
	s.fitted = true
}

// TransformRow rescales a single feature vector in place.
func (s *MinMaxScaler) TransformRow(row []float64) {
	if !s.fitted {
		return
	}
	for j := range row {
		if j >= len(s.min) {
			break
		}
		span := s.max[j] - s.min[j]
		if span == 0 {
			row[j] = 0
			continue
		}
		v := (row[j] - s.min[j]) / span
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		row[j] = v
	}
}

// FitTransform fits the scaler to m and rescales every row of m in
// place with TransformRow: columns that were constant map to 0. Values
// outside the fitted range are clamped, so the stochastic-model
// invariant B1 ∈ [0,1] holds even for out-of-distribution inputs.
func (s *MinMaxScaler) FitTransform(m *Dense) {
	s.Fit(m)
	if !s.fitted {
		return
	}
	for i := 0; i < m.Rows(); i++ {
		s.TransformRow(m.Row(i))
	}
}

// Bounds returns copies of the fitted per-column minima and maxima.
func (s *MinMaxScaler) Bounds() (min, max []float64) {
	return append([]float64(nil), s.min...), append([]float64(nil), s.max...)
}

// SetBounds restores previously fitted bounds (used when loading a
// persisted model). Passing empty slices resets the scaler to unfitted.
func (s *MinMaxScaler) SetBounds(min, max []float64) {
	s.min = append([]float64(nil), min...)
	s.max = append([]float64(nil), max...)
	s.fitted = len(min) > 0 && len(min) == len(max)
}

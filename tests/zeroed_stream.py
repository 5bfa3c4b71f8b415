"""A stub stream that zeroes chosen directions, for the sampler's redraws."""


class ZeroedStream:
    """A stream whose directions `zeros` are drawn as zeros, so that their
    norm is 0 and the sampler redraws them.  Direction p is normals n p to
    n p + n - 1 of the stream, however its draws are split; one at or past
    the chunk's size is a redraw."""

    def __init__(self, rng, n, zeros):
        self.rng, self.n, self.zeros, self.read = rng, n, zeros, 0

    def standard_normal(self, size=None, out=None):
        draw = self.rng.standard_normal(size, out=out)
        flat = draw.reshape(-1)
        for p in self.zeros:
            lo, hi = self.n * p - self.read, self.n * (p + 1) - self.read
            flat[max(lo, 0):max(hi, 0)] = 0.0
        self.read += flat.size
        return draw

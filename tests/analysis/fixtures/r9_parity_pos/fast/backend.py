"""R9 positive, fast side: missing structure_probes, extra simd_lanes."""


class VectorizedBackend:
    def query_rect(self, query, counter):  # EXPECT R9
        counter.charge("comparisons", 1)
        counter.charge("simd_lanes", 4)
        return []


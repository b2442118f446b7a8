"""R9 negative, fast side: batch-granularity mirror of every scalar
category (comparisons directly, the rest via ArrayStore.intersect)."""


class VectorizedBackend:
    def query_rect(self, query, counter):
        counter.charge("comparisons", 1)
        return self.store.intersect(query.keywords, counter)


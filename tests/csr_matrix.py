"""A scipy CSR matrix over a ``CsrArrays`` record's arrays, for tests that
read the featurizer's output through scipy's matrix API."""

from scipy import sparse


def as_matrix(record) -> sparse.csr_matrix:
    return sparse.csr_matrix((record.data, record.indices, record.indptr), shape=record.shape)

"""Multiple-double arithmetic (the paper's numerical substrate).

The subpackage provides:

* scalar error-free transformations (:mod:`repro.md.eft`) and their
  vectorised counterparts (:mod:`repro.md.veft`);
* expansion renormalisation, scalar (:mod:`repro.md.renorm`) and vectorised
  (:mod:`repro.md.vrenorm`);
* the scalar :class:`MultiDouble` and complex :class:`ComplexMD` types;
* the row kernels (:mod:`repro.md.vecops`, :mod:`repro.md.cvecops`) over
  separate limb arrays, the paper's GPU memory layout, which the tensor
  backend of :mod:`repro.core.tensor` runs;
* the precision registry (:mod:`repro.md.precision`) and the
  double-operation cost model (:mod:`repro.md.opcounts`) used by the
  performance analysis of Section 6.2.
"""

from .eft import two_sum, quick_two_sum, two_diff, two_prod, two_sqr, split, OperationCounter
from .renorm import renormalize, grow_expansion, expansion_from_terms
from .precision import Precision, PRECISIONS, PAPER_PRECISIONS, get_precision, limbs_of
from .multidouble import MultiDouble
from .complexmd import ComplexMD
from .opcounts import OpCounts, PAPER_OPCOUNTS, modelled_opcounts, opcounts_for, measure_opcounts
from .veft import vec_two_sum, vec_quick_two_sum, vec_two_prod, vec_split, vec_two_sqr
from .vrenorm import vec_renormalize, vecsum_sweep
from .vecops import md_add_rows, md_mul_rows, md_scale_rows, md_sub_rows
from .cvecops import cmd_add_rows, cmd_mul_rows, cmd_scale_rows, cmd_sub_rows

__all__ = [
    "two_sum",
    "quick_two_sum",
    "two_diff",
    "two_prod",
    "two_sqr",
    "split",
    "OperationCounter",
    "renormalize",
    "grow_expansion",
    "expansion_from_terms",
    "Precision",
    "PRECISIONS",
    "PAPER_PRECISIONS",
    "get_precision",
    "limbs_of",
    "MultiDouble",
    "ComplexMD",
    "OpCounts",
    "PAPER_OPCOUNTS",
    "modelled_opcounts",
    "opcounts_for",
    "measure_opcounts",
    "vec_two_sum",
    "vec_quick_two_sum",
    "vec_two_prod",
    "vec_split",
    "vec_two_sqr",
    "vec_renormalize",
    "vecsum_sweep",
    "md_add_rows",
    "md_sub_rows",
    "md_mul_rows",
    "md_scale_rows",
    "cmd_add_rows",
    "cmd_sub_rows",
    "cmd_mul_rows",
    "cmd_scale_rows",
]

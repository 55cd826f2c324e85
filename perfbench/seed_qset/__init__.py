"""Frozen copy of the qset modules that a scan row runs through, taken unchanged
from commit 0919adf.  The scan workload compares every CSV row the current
library emits with the row this copy computes, so a later change to the library
cannot move the reference it is checked against.  Do not edit these files.
"""

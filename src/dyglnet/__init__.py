"""Dynamic global-local segmentation network on a from-scratch kernel stack."""

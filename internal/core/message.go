// Package core implements the SBDMS service kernel: services, contracts,
// registries, repositories, coordinators, resource managers, adaptors,
// workflows and the SCA-style component/composite model described in
// "Architectural Concerns for Flexible Data Management" (Subasu et al.,
// EDBT 2008 SETMDM).
//
// The kernel is deliberately independent of any particular database
// functionality: storage, access, data and extension services are built
// on top of it (see the internal/storage, internal/access, internal/sql
// and extension packages) and wired together through composites.
package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
)

// Handler is the function type that implements a single service operation.
// Requests and responses are opaque to the kernel; services declare their
// payload types in the operation spec so that contracts can be matched and
// adaptors generated.
type Handler func(ctx context.Context, req any) (any, error)

// Invoker is anything that can receive a service invocation: a local
// service instance, a remote binding, an adaptor, or a late-bound
// reference. It is the universal connector type of the architecture.
type Invoker interface {
	// Invoke performs operation op with the given request payload and
	// returns the response payload.
	Invoke(ctx context.Context, op string, req any) (any, error)
}

// InvokerFunc adapts a plain function to the Invoker interface.
type InvokerFunc func(ctx context.Context, op string, req any) (any, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, op string, req any) (any, error) {
	return f(ctx, op, req)
}

// TypeName returns the canonical name used in contracts for a payload
// type. It is derived via reflection so that services do not have to
// maintain the names by hand.
func TypeName(v any) string {
	if v == nil {
		return "nil"
	}
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.PkgPath() == "" {
		return t.String()
	}
	return t.PkgPath() + "." + t.Name()
}

// TypeNameOf returns the contract name of a reflect.Type.
func TypeNameOf(t reflect.Type) string {
	if t == nil {
		return "nil"
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.PkgPath() == "" {
		return t.String()
	}
	return t.PkgPath() + "." + t.Name()
}

// RequestError describes a malformed or mistyped request payload. It is
// returned by services when the payload does not match the operation
// spec, and by adaptors when no transformation is available.
type RequestError struct {
	Op   string
	Want string
	Got  string
}

// Error implements the error interface.
func (e *RequestError) Error() string {
	return fmt.Sprintf("core: operation %q expects %s, got %s", e.Op, e.Want, e.Got)
}

// ErrReplyType is returned by Call when a reply payload is not of the
// type the caller expects.
var ErrReplyType = errors.New("core: mistyped reply")

// Handle registers a typed handler for op on s, so the payload is
// asserted once, here, rather than in every handler. A Req or a non-nil
// *Req is accepted; on an operation whose spec declares In "nil", a nil
// payload arrives as the zero Req. Any other payload is answered with a
// *RequestError naming op and the In type of its spec.
func Handle[Req, Resp any](s *BaseService, op string, fn func(ctx context.Context, req Req) (Resp, error)) *BaseService {
	spec, _ := s.contract.Op(op)
	return s.Handle(op, func(ctx context.Context, req any) (any, error) {
		r, ok := payloadAs[Req](req)
		if !ok && (req != nil || spec.In != "nil") {
			return nil, &RequestError{Op: op, Want: spec.In, Got: TypeName(req)}
		}
		return fn(ctx, r)
	})
}

// Call invokes op on inv and returns the reply as a Resp; a non-nil
// *Resp reply is dereferenced. A reply of any other type is an
// ErrReplyType error, never a silent zero value.
func Call[Resp any](ctx context.Context, inv Invoker, op string, req any) (Resp, error) {
	out, err := inv.Invoke(ctx, op, req)
	if err != nil {
		var zero Resp
		return zero, err
	}
	r, ok := payloadAs[Resp](out)
	if !ok {
		return r, fmt.Errorf("%w: operation %q returned %s, want %s", ErrReplyType, op, TypeName(out), typeNameFor[Resp]())
	}
	return r, nil
}

// Transform wraps a typed payload conversion as a TransformFunc. A
// payload that is neither a From nor a non-nil *From is an error, not a
// panic.
func Transform[From, To any](fn func(From) To) TransformFunc {
	return func(v any) (any, error) {
		r, ok := payloadAs[From](v)
		if !ok {
			return nil, fmt.Errorf("core: transform expects %s, got %s", typeNameFor[From](), TypeName(v))
		}
		return fn(r), nil
	}
}

// payloadAs returns v as a T, dereferencing a non-nil *T.
func payloadAs[T any](v any) (T, bool) {
	switch t := v.(type) {
	case T:
		return t, true
	case *T:
		if t != nil {
			return *t, true
		}
	}
	var zero T
	return zero, false
}

// typeNameFor is TypeNameOf for a static type.
func typeNameFor[T any]() string { return TypeNameOf(reflect.TypeOf((*T)(nil)).Elem()) }

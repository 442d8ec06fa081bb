package neogeo

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// fill sets every field under v to a distinct non-zero value, so a
// round trip through encoding/json that drops or aliases one shows up
// as a difference. Fields tagged json:"-" are left zero (the wire hides
// them), and a field with no json tag at all fails the test: the facade
// types are the HTTP schemas, so every field's wire name is a decision.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString("v" + string(rune('a'+*n%26)))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0), n)
	case reflect.Map:
		elem := reflect.New(v.Type().Elem()).Elem()
		fill(t, elem, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf("k"), elem)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(int64(*n), int64(*n)).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch tag := f.Tag.Get("json"); tag {
			case "":
				t.Errorf("%s.%s has no json tag", v.Type(), f.Name)
			case "-":
			default:
				fill(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fill: unhandled kind %s", v.Kind())
	}
}

// TestWireTypesRoundTrip pins the facade types that double as the HTTP
// API's request and response schemas: every field carries a json tag and
// survives a marshal/unmarshal round trip.
func TestWireTypesRoundTrip(t *testing.T) {
	for _, v := range []any{
		&Stats{}, &Answer{}, &Feedback{}, &Subscription{}, &SubscriptionEvent{},
	} {
		n := 0
		fill(t, reflect.ValueOf(v).Elem(), &n)
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T changed across the round trip:\n sent %+v\n got  %+v\n wire %s", v, v, got, data)
		}
	}
}

program fuzz
  input integer :: n = 6
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11, i12
  integer :: a0(6, 8)
  integer :: a1(10, -2:2)
  integer :: c0(n)
  a1(9, 0) = a0(4, 11) + 1
  do i0 = 2, n
    i1 = 0
    while (i1 < 3) do
      if (i1 >= 8) then
        call sub0(n, i0, c0)
        c0(3) = a1(i1+6, -2) + 2
        a1(i1+2, i1) = -5
        print i0
      end if
      do i2 = 1, n
        a0(i2, i1+1) = a1(9, 2*i1-2) + 1
      end do
      do i3 = -2, 4
        call sub0(n, i0, c0)
        c0(i1+4) = a0(i0-6, 5) + 3
        call sub0(n, i0, c0)
        a0(3, i0+2) = a1(-1*i0+9, 0) + 1
      end do
      if (i0 < 3) then
        a1(6, i0-4) = max(i1, 0)
        c0(2*i1+1) = i1 + 5
        a1(i0+4, i0-4) = a0(i0-1, -1*i0+10) + 1
        call sub0(n, i0, c0)
      else
        a0(i0-1, -1*i0+7) = c0(-1*i0+7) + 2
        a0(3, -1*i1+4) = a1(i0, -1*i1) + 2
        print 12
        call sub0(n, i0, c0)
        a0(i0, i1+3) = a0(i1+3, 4) + 2
        a0(i0-1, 5) = a1(i0+1, i0-4) + 3
      end if
      do i4 = i0, 1, -2
        a1(i1+4, 1) = 8
        print i0
        a0(3, -1*i4) = a0(i0, i0+2) + 1
        print i4
        a1(i0+1, -1) = i0 + 0
        a1(i4+4, 0) = i1 * 1
      end do
      print 35
      i1 = i1 + 1
    end while
    i5 = 1
    while (i5 < 2) do
      do i6 = 1, 1
        call sub0(n, i5, c0)
        call sub0(n, i5, c0)
      end do
      if (i0 /= 8) then
        c0(i0-1) = a1(i0+4, -1*i0+4) + 0
        a0(1, i5) = max(i0, 0)
        c0(i0) = a0(i0, 2*i5+3) + 2
        call sub0(n, i0, c0)
      end if
      do i7 = 6, 5, -2
        a0(-1*i7+9, -1*i7+9) = c0(i5+1) + 0
        call sub0(n, i5, c0)
        a0(3, -1*i5+3) = a1(i5+5, -2) + 2
        print 3
      end do
      i5 = i5 + 1
    end while
    do i8 = 1, i0
      a1(7, 2) = i8 * 3
      a1(9, 0) = 15
    end do
    a1(i0+2, i0-4) = c0(i0-1) + 0
    do i9 = 4, 7
      do i10 = n, 0, -2
        a0(4, i9-2) = 20
        a0(6, 8) = a0(5, 4) + 0
        call sub0(n, 6, c0)
        print i10
        a1(i0+3, 0) = a0(4, i0+1) + 0
        a0(3, 2*i9-7) = c0(4) + 1
      end do
      do i11 = 1, i9
        print i0
      end do
      if (i0 == 1) then
        call sub0(n, 2, c0)
        call sub0(n, 2, c0)
        c0(i0-1) = 18
        c0(i9-3) = i0 * 2
        print i0
      else
        a0(i0-1, 1) = a0(i9-2, 1) + 2
        call sub0(n, i0, c0)
        call sub0(n, i0, c0)
        a1(2*i0-2, i0-4) = a1(i0, i9-5) + 3
      end if
      do i12 = 0, 1
        a1(i0+1, i9-5) = max(i9, 1)
        a1(i9-2, i12) = c0(i9-2) + 0
        a0(8, i9-3) = c0(4) + 0
        c0(2*i12+3) = c0(i12+4) + 1
        a0(i0, 2*i9-7) = a0(2*i12+2, 7) + 0
        a1(i9-3, i9-5) = 20
      end do
    end do
    call sub0(n, i0, c0)
  end do
  print 46
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(m)
  do k = 1, m
    x(k) = k + j
    x(k) = x(k) + m
  end do
  x(j) = x(j) + 1
end subroutine
